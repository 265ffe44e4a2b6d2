"""Machine descriptions: the binding between a spec and real hardware.

The paper's spec file (Appendix 2) names register classes only through
non-terminal declarations like ``r = register``; the concrete register
file, reserved registers and runtime conventions lived inside CoGG's
"special utility routines for register allocation and symbol table
management" (section 2).  We make that binding an explicit, documented
object: each target package supplies a :class:`MachineDescription`
alongside its spec text (see DESIGN.md, "Substitutions").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Callable, Dict, FrozenSet, Optional, Sequence, Tuple,
)

from repro.errors import SpecTypeError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.grammar import SDTS


class ClassKind(enum.Enum):
    """What a register-class non-terminal denotes."""

    GPR = "gpr"        # single allocatable registers (r, base, fr...)
    PAIR = "pair"      # even/odd pairs over an underlying GPR class (dbl)
    CC = "cc"          # the condition code: one implicit pseudo-register


@dataclass(frozen=True)
class RegisterClass:
    """One register class managed by the allocation routine.

    ``members`` lists every hardware register of the class;
    ``allocatable`` is the subset ``using`` may hand out (reserved
    registers like base registers are members but not allocatable, so
    ``need`` can still reserve them).  For ``PAIR`` classes the members
    are the *even* registers of each pair and ``pair_of`` names the
    underlying GPR class.
    """

    name: str
    kind: ClassKind
    members: Tuple[int, ...] = ()
    allocatable: Tuple[int, ...] = ()
    pair_of: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind is ClassKind.PAIR and self.pair_of is None:
            raise SpecTypeError(
                f"pair class {self.name!r} must name its underlying class"
            )
        stray = set(self.allocatable) - set(self.members)
        if stray:
            raise SpecTypeError(
                f"class {self.name!r}: allocatable registers {sorted(stray)} "
                f"are not members"
            )


class Encoder:
    """Target encoding interface used by the loader record generator.

    Concrete targets (``repro.machines.s370.encode``) subclass this; the
    core never interprets instruction bytes itself.
    """

    def size(self, instr) -> int:  # pragma: no cover - interface
        """Byte length of an :class:`repro.core.codegen.emitter.Instr`."""
        raise NotImplementedError

    def encode(self, instr, address: int) -> bytes:  # pragma: no cover
        """Encode at a known final address (branches are pre-resolved)."""
        raise NotImplementedError

    # -- static facts for the spec analyzer (repro.analysis) ---------------
    #
    # Both return ``None`` when the target cannot answer statically; the
    # analyzer then skips the corresponding check instead of guessing.

    def mnemonics(self) -> Optional[FrozenSet[str]]:
        """Every mnemonic :meth:`encode` accepts, or ``None`` if unknown."""
        return None

    def operand_arity(self, mnemonic: str) -> Optional[Tuple[int, int]]:
        """Inclusive ``(min, max)`` operand count, or ``None`` if unknown."""
        return None

    def indexed_operands(self, mnemonic: str) -> Optional[FrozenSet[int]]:
        """Operand positions whose address form may fill the index slot
        (the ``x`` of ``d(x,b)``), or ``None`` if unknown."""
        return None

    # -- dataflow effects (repro.opt.cfg / repro.opt.dataflow) --------------

    def effects(self, instr):
        """:class:`~repro.core.effects.InstrEffects` for one instruction,
        or ``None`` when the mnemonic is outside the effect table (the
        framework then assumes a full barrier)."""
        return None

    def effect_coverage(self) -> Optional[FrozenSet[str]]:
        """Mnemonics the effect table understands (including deliberate
        barriers), or ``None`` when the target has no table at all.
        ``mnemonics() - effect_coverage()`` is the coverage gap the
        sanitizer reports as SL053."""
        return None

    def entry_defined_registers(self) -> FrozenSet[int]:
        """Registers holding defined values at program/routine entry
        (ABI bases, link registers); the reaching-defs sanitizer never
        flags uses of these."""
        return frozenset()

    def expression_ops(self) -> FrozenSet[str]:
        """Mnemonics whose result is a pure function of their operands
        (no traps, no CC the target cares about): the candidate set for
        the available-expressions analysis behind global CSE.  Empty
        means the target opts out of -O3's CSE pass."""
        return frozenset()

    # -- interprocedural summaries (repro.opt.summaries, -O4) ---------------

    def disjoint_base_pairs(self) -> FrozenSet[FrozenSet[int]]:
        """Pairs of base registers guaranteed to address disjoint memory
        regions at every point of generated code (runtime-dedicated
        area bases).  Feeds the optional refinement in
        :func:`repro.core.effects.may_alias`; empty (the default) keeps
        aliasing fully conservative."""
        return frozenset()

    def match_linkage(self, entry_items, return_tails
                      ) -> Optional["LinkageInfo"]:
        """Match a routine's prologue/epilogue against the target's
        standard linkage and describe what it guarantees.

        ``entry_items`` are the effective (non-mark) items of the
        routine's entry block; ``return_tails`` one item list per
        return block (the items up to and including the terminator).
        Returns ``None`` unless *every* return path provably restores
        the callee-save state -- the summaries pass then degrades that
        routine to a barrier rather than guessing."""
        return None


@dataclass(frozen=True)
class LinkageInfo:
    """What a matched standard prologue/epilogue guarantees callers.

    ``preserved`` registers carry the caller's value back across the
    call; ``must_writes`` are caller-coordinate locations the linkage
    writes on every path through the routine (save area, frame
    bookkeeping), usable as must-write facts at summarized call sites.
    """

    preserved: FrozenSet[int]
    must_writes: Tuple[object, ...] = ()


@dataclass
class MachineDescription:
    """Everything target-specific the table-driven runtime needs.

    Attributes
    ----------
    classes:
        non-terminal name -> :class:`RegisterClass`.
    constants:
        Resolution for spec constants that carry no numeric value in the
        ``$Constants`` section (runtime conventions such as ``code_base``,
        ``pr_base``, ``save_area``); checked before spec-declared values.
    move_op / load_op / store_op:
        Opcodes the runtime itself must emit: register shuffles for
        ``need`` (paper 4.1), and spill/reload around register exhaustion.
    branch_op / branch_load_op:
        The conditional branch and the literal-pool load used for the
        long-branch expansion (paper 4.2, footnote 4).
    semop_handlers:
        Extra semantic operators: name -> handler(ctx, template).
    """

    name: str
    classes: Dict[str, RegisterClass]
    constants: Dict[str, int] = field(default_factory=dict)
    encoder: Optional[Encoder] = None
    move_op: Dict[str, str] = field(default_factory=dict)
    load_op: Dict[str, str] = field(default_factory=dict)
    store_op: Dict[str, str] = field(default_factory=dict)
    branch_op: str = "bc"
    branch_load_op: str = "l"
    call_op: str = "bal"
    page_size: int = 4096
    semop_handlers: Dict[str, Callable] = field(default_factory=dict)
    #: Opcodes behind opcode-flavored semantic operators, e.g.
    #: ``{"load_odd_full": "l", "load_odd_addr": "la", ...}``.
    semop_opcodes: Dict[str, str] = field(default_factory=dict)

    def register_class(self, nonterminal: str) -> Optional[RegisterClass]:
        return self.classes.get(nonterminal)

    def gpr_class_of(self, cls: RegisterClass) -> RegisterClass:
        """The underlying GPR class (itself for non-pair classes)."""
        if cls.kind is ClassKind.PAIR:
            assert cls.pair_of is not None
            return self.classes[cls.pair_of]
        return cls


def template_constants(
    sdts: "SDTS", machine: MachineDescription
) -> Dict[str, int]:
    """The value of every template constant: the machine's, and the
    spec's numeric declarations (``zero = 0``) for names the machine
    leaves out.  The code generator fills in templates from this table
    and speclint (SL032, SL035) checks them against it."""
    constants = {
        s.name: s.numeric_value
        for s in sdts.symtab
        if s.numeric_value is not None
    }
    constants.update(machine.constants)
    return constants


def simple_machine(
    name: str,
    register_nonterminal: str = "r",
    registers: Sequence[int] = range(8),
    allocatable: Optional[Sequence[int]] = None,
) -> MachineDescription:
    """A minimal machine description for tests and the quickstart example."""
    members = tuple(registers)
    alloc = tuple(allocatable) if allocatable is not None else members
    return MachineDescription(
        name=name,
        classes={
            register_nonterminal: RegisterClass(
                name="register",
                kind=ClassKind.GPR,
                members=members,
                allocatable=alloc,
            )
        },
    )
