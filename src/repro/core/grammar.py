"""SDTS grammar model: the bridge between the spec front end and both the
LR table constructor and the code-generation runtime.

A production like ``r.2 ::= iadd r.2 fullword dsp.1 r.1`` plays two roles:

* for **table construction** the indices are irrelevant -- the grammar
  symbol string is ``r ::= iadd r fullword dsp r``;
* for **code emission** the indices bind template operands to parse-stack
  positions (``r.2`` is the first RHS register, ``dsp.1`` the displacement
  at position 3, ...).

:class:`Production` keeps both views; :class:`SDTS` holds the whole scheme
along with the symbol table and the statistics needed for the paper's
Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import GrammarError
from repro.core.speclang.ast import (
    LAMBDA,
    Ref,
    SpecAST,
    SymKind,
    TemplateAST,
)
from repro.core.speclang.symtab import SymbolTable

#: Grammar symbol reserved for the LHS of code-only productions.  At run
#: time a reduced lambda production pushes this marker, which the implicit
#: statement-sequence wrapper grammar consumes.
LAMBDA_SYMBOL = LAMBDA

#: Augmented-grammar bookkeeping symbols (never declarable by specs).
GOAL_SYMBOL = "__goal__"
SEQ_SYMBOL = "__seq__"
END_MARKER = "__end__"


@dataclass(frozen=True)
class Production:
    """One SDTS production with its templates.

    Attributes
    ----------
    pid:
        Dense production id; ids ``0..2`` are reserved for the implicit
        wrapper grammar (see :func:`build_sdts`).
    lhs:
        Grammar symbol of the left-hand side (``LAMBDA_SYMBOL`` for code-only
        productions, or a non-terminal name).
    lhs_ref:
        The spec's indexed LHS reference (``r.2``), ``None`` for lambda and
        wrapper productions.
    rhs:
        Grammar symbols of the right-hand side, indices stripped.
    rhs_refs:
        Parallel tuple: the original :class:`Ref` for terminal/non-terminal
        positions, ``None`` for operator positions.
    """

    pid: int
    lhs: str
    lhs_ref: Optional[Ref]
    rhs: Tuple[str, ...]
    rhs_refs: Tuple[Optional[Ref], ...]
    templates: Tuple[TemplateAST, ...]
    line: int = 0

    @property
    def is_lambda(self) -> bool:
        return self.lhs == LAMBDA_SYMBOL

    @property
    def is_wrapper(self) -> bool:
        return self.lhs in (GOAL_SYMBOL, SEQ_SYMBOL)

    def binding_positions(self) -> Dict[Tuple[str, int], int]:
        """Map ``(name, index)`` -> RHS position for template binding."""
        out: Dict[Tuple[str, int], int] = {}
        for pos, ref in enumerate(self.rhs_refs):
            if ref is not None:
                out[(ref.name, ref.index)] = pos
        return out

    def __str__(self) -> str:
        rhs = " ".join(
            str(ref) if ref is not None else name
            for name, ref in zip(self.rhs, self.rhs_refs)
        )
        lhs = str(self.lhs_ref) if self.lhs_ref is not None else self.lhs
        return f"{lhs} ::= {rhs}"


@dataclass
class SDTS:
    """A complete syntax-directed translation scheme.

    ``productions`` includes the three implicit wrapper productions first::

        0: __goal__ ::= __seq__
        1: __seq__  ::= __seq__ lambda
        2: __seq__  ::= lambda

    so the generated parser accepts any *sequence* of IF statements, each
    deriving ``lambda`` (paper section 3, footnote 3: "Actually every LHS is
    prefixed to the input stream").
    """

    symtab: SymbolTable
    productions: List[Production]
    nonterminals: Set[str] = field(default_factory=set)
    terminals: Set[str] = field(default_factory=set)

    @property
    def user_productions(self) -> List[Production]:
        """Productions written by the spec author (wrapper ones excluded)."""
        return [p for p in self.productions if not p.is_wrapper]

    @property
    def parse_symbols(self) -> Set[str]:
        """Symbols encounterable in the IF during a parse.

        This is the paper's "X dimension of the parse table" (Table 1.ii):
        operators and terminals appearing in productions, the non-terminals
        (which are prefixed back to the input after reductions), ``lambda``,
        the end marker, and the internal statement-sequence symbol (whose
        reduced results also travel through the input stream).
        """
        return (
            self.terminals
            | self.nonterminals
            | {LAMBDA_SYMBOL, SEQ_SYMBOL, END_MARKER}
        )

    def is_nonterminal(self, symbol: str) -> bool:
        return (
            symbol in self.nonterminals
            or symbol in (LAMBDA_SYMBOL, GOAL_SYMBOL, SEQ_SYMBOL)
        )

    # ---- statistics for the paper's Table 1 -------------------------------

    def statistics(self) -> Dict[str, int]:
        """The counters reported in the paper's Table 1 (rows i, vi-ix).

        Parse-table-dependent rows (ii-v) come from
        :meth:`repro.core.tables.ParseTables.statistics`.
        """
        user = self.user_productions
        production_operators = {
            sym
            for p in user
            for sym, ref in zip(p.rhs, p.rhs_refs)
            if ref is None
        }
        semops_used = {
            t.op
            for p in user
            for t in p.templates
            if self.symtab.kind_of(t.op) is SymKind.CONSTANT
        }
        return {
            "symbols_declared": len(self.symtab),
            "productions": len(user),
            "sdt_templates": sum(len(p.templates) for p in user),
            "production_operators": len(production_operators),
            "semantic_operators": len(semops_used),
        }


def build_sdts(spec: SpecAST, symtab: SymbolTable) -> SDTS:
    """Lower a type-checked :class:`SpecAST` into an :class:`SDTS`.

    Adds the wrapper grammar, strips indices into the dual rhs/rhs_refs
    view, and records which declared symbols actually participate in the
    grammar.
    """
    productions: List[Production] = [
        Production(0, GOAL_SYMBOL, None, (SEQ_SYMBOL,), (None,), ()),
        Production(1, SEQ_SYMBOL, None, (SEQ_SYMBOL, LAMBDA_SYMBOL),
                   (None, None), ()),
        Production(2, SEQ_SYMBOL, None, (LAMBDA_SYMBOL,), (None,), ()),
    ]
    nonterminals: Set[str] = set()
    terminals: Set[str] = set()

    for ast in spec.productions:
        rhs_names: List[str] = []
        rhs_refs: List[Optional[Ref]] = []
        for elem in ast.rhs:
            if isinstance(elem, Ref):
                rhs_names.append(elem.name)
                rhs_refs.append(elem)
                info = symtab.require(elem.name, ast.line)
                if info.kind is SymKind.NONTERMINAL:
                    nonterminals.add(elem.name)
                else:
                    terminals.add(elem.name)
            else:
                rhs_names.append(elem)
                rhs_refs.append(None)
                terminals.add(elem)
        lhs = ast.lhs.name if ast.lhs is not None else LAMBDA_SYMBOL
        if ast.lhs is not None:
            nonterminals.add(ast.lhs.name)
        productions.append(
            Production(
                pid=len(productions),
                lhs=lhs,
                lhs_ref=ast.lhs,
                rhs=tuple(rhs_names),
                rhs_refs=tuple(rhs_refs),
                templates=ast.templates,
                line=ast.line,
            )
        )

    if len(productions) == 3:
        raise GrammarError("spec contains no productions")

    overlap = nonterminals & terminals
    if overlap:
        raise GrammarError(
            f"symbols used both as non-terminals and terminals: "
            f"{sorted(overlap)}"
        )
    return SDTS(
        symtab=symtab,
        productions=productions,
        nonterminals=nonterminals,
        terminals=terminals,
    )
