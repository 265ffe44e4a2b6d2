"""SLR(1) table construction with Glanville's conflict-resolution policy.

Machine grammars are deliberately ambiguous (thirteen IADD productions in
the paper's spec, section 5), so conflicts are expected and are resolved
rather than rejected:

* **shift/reduce** -> shift: prefer matching the *largest* subtree, i.e.
  the most specific instruction pattern;
* **reduce/reduce** -> the production with the longer right-hand side, so
  that e.g. an add-from-memory production beats a bare load followed by a
  register add; ties break toward the earlier declaration, giving spec
  authors a deterministic priority knob.

Every resolution is recorded in a :class:`ConflictRecord` so the spec
author can audit the generated tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import TableError
from repro.core import buildstats
from repro.core.grammar import END_MARKER, GOAL_SYMBOL, SDTS
from repro.core.lr.automaton import LRAutomaton, build_automaton
from repro.core import tables as T
from repro.core.tables import ParseTables


def first_sets(sdts: SDTS) -> Dict[str, Set[str]]:
    """FIRST for every grammar symbol.

    The grammar has no epsilon productions, so FIRST of a string is FIRST
    of its head, and the usual nullable bookkeeping disappears.
    """
    first: Dict[str, Set[str]] = {}
    for t in sdts.terminals | {END_MARKER}:
        first[t] = {t}
    nonterminals = {p.lhs for p in sdts.productions}
    for nt in nonterminals:
        first[nt] = set()
    changed = True
    while changed:
        changed = False
        for prod in sdts.productions:
            head = prod.rhs[0]
            add = first.get(head, {head})
            target = first[prod.lhs]
            before = len(target)
            target |= add
            changed = changed or len(target) != before
    return first


def follow_sets(
    sdts: SDTS, first: Optional[Dict[str, Set[str]]] = None
) -> Dict[str, Set[str]]:
    """FOLLOW for every nonterminal; FOLLOW(goal) = {end marker}."""
    if first is None:
        first = first_sets(sdts)
    nonterminals = {p.lhs for p in sdts.productions}
    follow: Dict[str, Set[str]] = {nt: set() for nt in nonterminals}
    follow[GOAL_SYMBOL].add(END_MARKER)
    changed = True
    while changed:
        changed = False
        for prod in sdts.productions:
            for i, sym in enumerate(prod.rhs):
                if sym not in nonterminals:
                    continue
                target = follow[sym]
                before = len(target)
                if i + 1 < len(prod.rhs):
                    nxt = prod.rhs[i + 1]
                    target |= first.get(nxt, {nxt})
                else:
                    target |= follow[prod.lhs]
                changed = changed or len(target) != before
    return follow


@dataclass(frozen=True)
class ConflictRecord:
    """One resolved table conflict, for diagnostics.

    The winning and losing actions are stored in their encoded form (see
    :mod:`repro.core.tables`) so consumers can recover production ids and
    shift targets structurally instead of re-parsing rendered strings;
    ``chosen``/``rejected`` keep the human-readable rendering.
    """

    state: int
    symbol: str
    kind: str            # "shift/reduce" or "reduce/reduce"
    chosen_action: int   # encoded winning action
    rejected_action: int # encoded losing action

    @property
    def chosen(self) -> str:
        return T.action_str(self.chosen_action)

    @property
    def rejected(self) -> str:
        return T.action_str(self.rejected_action)

    @property
    def chosen_pid(self) -> Optional[int]:
        """Production id of the winning action, ``None`` unless a reduce."""
        if T.is_reduce(self.chosen_action):
            return T.reduce_pid(self.chosen_action)
        return None

    @property
    def rejected_pid(self) -> Optional[int]:
        """Production id of the losing action, ``None`` unless a reduce."""
        if T.is_reduce(self.rejected_action):
            return T.reduce_pid(self.rejected_action)
        return None

    def __str__(self) -> str:
        return (
            f"state {self.state} on {self.symbol!r}: {self.kind} resolved "
            f"to {self.chosen} (over {self.rejected})"
        )


def _prefer(
    sdts: SDTS, existing: int, candidate: int
) -> Tuple[int, Optional[str]]:
    """Glanville's policy.  Returns (winner, conflict kind or None)."""
    if existing == T.ERROR or existing == candidate:
        return candidate, None
    ex_shift, ca_shift = T.is_shift(existing), T.is_shift(candidate)
    if ex_shift and T.is_reduce(candidate):
        return existing, "shift/reduce"
    if T.is_reduce(existing) and ca_shift:
        return candidate, "shift/reduce"
    if T.is_reduce(existing) and T.is_reduce(candidate):
        pe = sdts.productions[T.reduce_pid(existing)]
        pc = sdts.productions[T.reduce_pid(candidate)]
        if len(pc.rhs) > len(pe.rhs):
            return candidate, "reduce/reduce"
        if len(pc.rhs) < len(pe.rhs) or pe.pid <= pc.pid:
            return existing, "reduce/reduce"
        return candidate, "reduce/reduce"
    raise TableError(
        f"irreconcilable actions {T.action_str(existing)} vs "
        f"{T.action_str(candidate)}"
    )


def build_parse_tables(
    sdts: SDTS, automaton: Optional[LRAutomaton] = None
) -> Tuple[ParseTables, List[ConflictRecord]]:
    """Construct the SLR(1) action matrix for an SDTS.

    The matrix column space is :attr:`SDTS.parse_symbols` -- non-terminal
    "goto" entries are encoded as shifts because the runtime re-feeds
    reduced LHS symbols through the input stream.
    """
    buildstats.bump("table_builds")
    if automaton is None:
        automaton = build_automaton(sdts)
    follow = follow_sets(sdts)
    symbols = sorted(sdts.parse_symbols)
    tables = ParseTables.empty(symbols, automaton.nstates)
    sym_index = tables.sym_index
    conflicts: List[ConflictRecord] = []

    def put(state: int, col: int, action: int) -> None:
        row = tables.matrix[state]
        existing = row[col]
        if existing == T.ERROR:
            row[col] = action
            return
        winner, kind = _prefer(sdts, existing, action)
        if kind is not None:
            loser = action if winner == existing else existing
            conflicts.append(
                ConflictRecord(
                    state=state,
                    symbol=symbols[col],
                    kind=kind,
                    chosen_action=winner,
                    rejected_action=loser,
                )
            )
        row[col] = winner

    for (state, symbol), target in automaton.transitions.items():
        col = sym_index.get(symbol)
        if col is not None:
            put(state, col, T.encode_shift(target))

    # Reductions in pid order, lookaheads in column order: the conflict
    # list comes out the same under every PYTHONHASHSEED.
    follow_cols = {
        lhs: sorted(sym_index[s] for s in follow_set if s in sym_index)
        for lhs, follow_set in follow.items()
    }
    accept_col = sym_index[END_MARKER]
    for state, complete in enumerate(automaton.complete):
        for pid in complete:
            if pid == 0:
                put(state, accept_col, T.ACCEPT)
                continue
            for col in follow_cols[sdts.productions[pid].lhs]:
                put(state, col, T.encode_reduce(pid))

    return tables, conflicts
