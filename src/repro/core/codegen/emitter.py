"""The code buffer: instruction objects and deferred branch/label items.

Instructions are appended during reductions; branches and labels stay
symbolic (``BranchSite`` / ``LabelMark``) until the loader record
generator resolves them in its final traversal (paper section 3: "While
parsing the IF, label locations and branch instructions are kept in a
dictionary").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union


@dataclass(frozen=True, slots=True)
class R:
    """A register operand."""

    n: int

    def __str__(self) -> str:
        return f"r{self.n}"


@dataclass(frozen=True, slots=True)
class Imm:
    """An immediate/numeric operand (shift counts, SI immediates...)."""

    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True, slots=True)
class Mem:
    """A base-displacement address ``disp(index, base)``.

    Register 0 means "no register" in both index and base positions,
    following the S/370 convention the paper's machine uses.
    """

    disp: int
    index: int = 0
    base: int = 0

    def __str__(self) -> str:
        if self.index:
            return f"{self.disp}({self.index},{self.base})" if self.base \
                else f"{self.disp}({self.index})"
        if self.base:
            return f"{self.disp}(,{self.base})"
        return str(self.disp)


Operand = Union[R, Imm, Mem]

#: Interned register operands.  ``R`` is frozen, so one instance per
#: register number can be shared by every instruction that names it;
#: real machines keep register numbers small.
R_INTERNED: Tuple[R, ...] = tuple(R(n) for n in range(32))


@dataclass(slots=True)
class Instr:
    """One fully resolved machine instruction."""

    opcode: str
    operands: Tuple[Operand, ...] = ()
    comment: str = ""

    def __str__(self) -> str:
        ops = ",".join(str(o) for o in self.operands)
        return f"{self.opcode:<6}{ops}"


@dataclass(slots=True)
class LabelMark:
    """A label definition at this buffer position (LABEL_LOCATION)."""

    label: int


@dataclass(slots=True)
class BranchSite:
    """A deferred branch: ``cond`` mask, target ``label``, and the spare
    ``index_reg`` allocated for the long form (paper 4.2).

    ``long`` is decided by the loader record generator's fixpoint pass.
    When ``link_reg`` is set the site is a *call*: the resolved
    instruction is a BAL-style branch-and-link instead of BC.
    """

    cond: int
    label: int
    index_reg: int
    long: bool = False
    comment: str = ""
    link_reg: Optional[int] = None


@dataclass(slots=True)
class SkipSite:
    """A short intra-template branch over the next ``halfwords * 2`` bytes
    of code (the SKIP operator, paper 4.2's boolean-store example)."""

    cond: int
    halfwords: int
    index_reg: int
    long: bool = False
    comment: str = ""


@dataclass(slots=True)
class StmtMark:
    """A source-statement marker (STMT_RECORD): zero bytes of code, one
    annotated line in listings."""

    stmt: int


@dataclass(slots=True)
class AConSite:
    """A 4-byte address constant referring to ``label`` (LABEL_PNTR);
    resolved to label address + relocated by the loader."""

    label: int


@dataclass(slots=True)
class DataBlock:
    """Raw assembled data (branch tables, inline constants)."""

    data: bytes


BufferItem = Union[
    Instr, LabelMark, BranchSite, SkipSite, AConSite, DataBlock, StmtMark
]


@dataclass
class CodeBuffer:
    """Append-only buffer of code items produced during parsing.

    The buffer doubles as the **stable symbolic-instruction interface**
    consumed by post-selection passes (:mod:`repro.opt.peephole`): the
    item dataclasses above, the ``items`` list, and the ``deaths``
    register-death facts together are the contract.  A pass may rewrite
    ``Instr`` objects in place or tombstone items to ``None`` and call
    :meth:`compact`; label resolution stays symbolic until the loader
    record generator runs.

    ``deaths`` records ``(index, register)`` pairs fed by the register
    allocator's ``on_free`` hook: the value in ``register`` is dead
    before the item at ``index`` (no later item reads it until it is
    redefined).  Peephole store/load forwarding uses these as ground
    truth for liveness instead of guessing from the instruction stream.

    ``origins`` maps item index -> provenance tag (the spec production
    and template that emitted the item); the SL05x generated-code
    sanitizer uses it to trace diagnostics back to the responsible spec
    line.  Sparse: runtime-emitted items (prologues, literal pools)
    carry no origin.
    """

    items: List[BufferItem] = field(default_factory=list)
    deaths: List[Tuple[int, int]] = field(default_factory=list)
    origins: Dict[int, str] = field(default_factory=dict)

    def note_death(self, reg: int) -> None:
        """Allocator ``on_free`` target: ``reg`` is dead from here on."""
        self.deaths.append((len(self.items), reg))

    def note_origin(self, tag: str) -> None:
        """Stamp the most recently appended item with a provenance tag."""
        if self.items:
            self.origins[len(self.items) - 1] = tag

    def compact(self) -> None:
        """Drop tombstoned (``None``) items, remapping death indices and
        origin tags (origins of deleted items are dropped)."""
        new_index = []
        kept = 0
        for item in self.items:
            new_index.append(kept)
            if item is not None:
                kept += 1
        bound = len(self.items)
        self.deaths = [
            (new_index[i] if i < bound else kept, reg)
            for i, reg in self.deaths
        ]
        self.origins = {
            new_index[i]: tag
            for i, tag in self.origins.items()
            if i < bound and self.items[i] is not None
        }
        self.items = [item for item in self.items if item is not None]

    def emit(self, instr: Instr) -> Instr:
        self.items.append(instr)
        return instr

    def op(self, opcode: str, *operands: Operand, comment: str = "") -> Instr:
        return self.emit(Instr(opcode, tuple(operands), comment))

    def mark_label(self, label: int) -> None:
        self.items.append(LabelMark(label))

    def branch(
        self, cond: int, label: int, index_reg: int, comment: str = ""
    ) -> BranchSite:
        site = BranchSite(cond, label, index_reg, comment=comment)
        self.items.append(site)
        return site

    def skip(
        self, cond: int, halfwords: int, index_reg: int, comment: str = ""
    ) -> SkipSite:
        site = SkipSite(cond, halfwords, index_reg, comment=comment)
        self.items.append(site)
        return site

    def acon(self, label: int) -> AConSite:
        site = AConSite(label)
        self.items.append(site)
        return site

    def data(self, data: bytes) -> DataBlock:
        block = DataBlock(data)
        self.items.append(block)
        return block

    def mark_statement(self, stmt: int) -> None:
        self.items.append(StmtMark(stmt))

    @property
    def instruction_count(self) -> int:
        """Instructions emitted so far, branch sites counted as one."""
        return sum(
            1
            for item in self.items
            if isinstance(item, (Instr, BranchSite, SkipSite))
        )

    def instructions(self) -> List[Instr]:
        """Only the fixed instructions (pre-resolution view, for tests)."""
        return [item for item in self.items if isinstance(item, Instr)]
