"""The skeletal parser and code emission routine (paper section 3).

The generated code generator is a standard LR parser over the linearized
prefix IF, plus the emission routine sketched in the paper::

    { Assume that a reduction has occurred. }
    begin
      remove current production from the parse stack.
      allocate all requested registers.
      for all associated templates do begin
        fill in required values { registers, displacements, etc. }
        if template requires semantic intervention
          then case intervention code of ... end
          else append instruction to code buffer
      end
      prefix LHS to input stream.
    end

The one structural liberty over a textbook LR parser: reduced left-hand
sides (and anything semantic operators produce, like PUSH_ODD results or
FIND_COMMON addresses) are *prefixed to the input stream* and re-enter
through the shift path, so the action table is indexed by every grammar
symbol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Tuple, Union,
)

from repro.errors import (
    ChainLoopError,
    CodeGenBlockedError,
    CodeGenError,
    RegisterPressureError,
    StepBudgetError,
)
from repro.core import tables as T
from repro.core.grammar import END_MARKER, LAMBDA_SYMBOL, SDTS, Production
from repro.core.machine import (
    ClassKind, MachineDescription, template_constants,
)
from repro.core.speclang.ast import (
    Name,
    Number,
    OperandAST,
    Primary,
    Ref,
    SymKind,
    TemplateAST,
)
from repro.core.codegen.cse import CseManager
from repro.core.codegen.emitter import (
    CodeBuffer,
    Imm,
    Instr,
    Mem,
    Operand,
    R,
    R_INTERNED,
)
from repro.core.codegen.labels import LabelDictionary
from repro.core.codegen.operand import (
    AttrValue,
    CCValue,
    LambdaValue,
    PairValue,
    RegValue,
    SpilledValue,
    StackValue,
)
from repro.core.codegen.registers import RegisterAllocator, SpillDirective
from repro.core.codegen.semantic_ops import STANDARD_HANDLERS
from repro.core.lr.compress import CompressedTables
from repro.core.tables import ParseTables
from repro.ir.linear import IFToken

_NR_INTERNED = len(R_INTERNED)


class Frame:
    """Scratch-storage interface the shaper hands the code generator.

    Only needed when register pressure forces spills; the S/370 shaper's
    :class:`~repro.ir.shaper.StackFrame` implements it.
    """

    base_reg: int = 0

    def alloc_temp(self, size: int) -> int:  # pragma: no cover - interface
        raise NotImplementedError


@dataclass(frozen=True)
class ParserGuards:
    """Watchdog configuration for one :meth:`CodeGenerator.generate` call.

    ``step_budget`` bounds the *total* number of parser loop iterations;
    ``None`` derives a generous bound from the input length.  A correct
    table/IF pair never comes close, so tripping it means a corrupted
    table, a malformed IF, or a grammar defect -- the parse ends in a
    typed :class:`~repro.errors.StepBudgetError` instead of spinning.

    ``chain_limit`` drives the chain-loop watchdog: the number of steps
    the parser may run without either consuming an original input token
    or shrinking the parse stack below its depth at the last consumption.
    Reduce-without-shift cycles (chain rules that reduce forever) can
    never reach a new stack minimum, so they trip this limit quickly;
    legitimate reduction cascades constantly reach new minima and never
    trip it.
    """

    step_budget: Optional[int] = None
    chain_limit: int = 4096


#: Shared default so callers can pass ``guards=None`` cheaply.
DEFAULT_GUARDS = ParserGuards()


@dataclass
class GeneratedCode:
    """Everything the code generator produced for one compilation unit."""

    buffer: CodeBuffer
    labels: LabelDictionary
    cse: CseManager
    stats: Dict[str, Any] = field(default_factory=dict)
    reductions: int = 0

    def instructions(self) -> List[Instr]:
        return self.buffer.instructions()

    def listing(self) -> str:
        """Pre-resolution symbolic listing (for debugging and tests)."""
        lines: List[str] = []
        for item in self.buffer.items:
            lines.append(_render_item(item))
        return "\n".join(lines)


def _render_item(item) -> str:
    from repro.core.codegen import emitter as E

    if isinstance(item, E.Instr):
        text = f"    {item}"
        return f"{text:<40}{item.comment}".rstrip()
    if isinstance(item, E.LabelMark):
        return f"L{item.label}:"
    if isinstance(item, E.BranchSite):
        return (
            f"    branch cond={item.cond} -> L{item.label} "
            f"(x={item.index_reg})"
        )
    if isinstance(item, E.SkipSite):
        return f"    skip cond={item.cond} +{item.halfwords}h"
    if isinstance(item, E.AConSite):
        return f"    acon L{item.label}"
    return f"    data {len(item.data)} bytes"


class EmissionContext:
    """Per-reduction state shared with the semantic-operator handlers.

    Its ``resolve_*`` methods are the one template resolver: the
    generic reducer fills in opcode templates with them, the handlers
    their operands, and :mod:`repro.core.specialize` emits their
    compiled mirror for opcode templates.

    One is constructed per non-wrapper reduction -- thousands per
    compilation unit -- so the class is slotted and its bindings come
    from the production's precompiled :class:`_ProdPlan` instead of a
    per-reduction scan over ``rhs_refs``.
    """

    __slots__ = (
        "gen", "run", "prod", "values", "machine", "alloc", "cse",
        "labels", "buffer", "stats", "ignore_lhs", "prefix", "allocated",
        "_suppressed", "bindings",
    )

    def __init__(
        self,
        gen: "CodeGenerator",
        run: "_Run",
        prod: Production,
        values: List[StackValue],
        plan: "_ProdPlan",
    ):
        self.gen = gen
        self.run = run
        self.prod = prod
        self.values = values
        self.machine = gen.machine
        self.alloc = run.alloc
        self.cse = run.cse
        self.labels = run.labels
        self.buffer = run.buffer
        self.stats = run.stats
        self.ignore_lhs = False
        self.prefix: List[IFToken] = []
        self.allocated: List[Union[RegValue, PairValue, CCValue]] = []
        self._suppressed: List[StackValue] = []
        bindings: Dict[Tuple[str, int], StackValue] = {}
        for key, pos in plan.binding_refs:
            bindings[key] = values[pos]
        self.bindings = bindings

    # ---- bindings -------------------------------------------------------------

    def binding(self, primary: Primary, tmpl: TemplateAST) -> StackValue:
        if not isinstance(primary, Ref):
            raise CodeGenError(
                f"{tmpl.op}: {primary} is not a symbol reference"
            )
        value = self.bindings.get((primary.name, primary.index))
        if value is None:
            raise CodeGenError(
                f"{tmpl.op}: {primary} is unbound in {self.prod}"
            )
        return value

    def rebind(self, ref: Ref, value: StackValue) -> None:
        self.bindings[(ref.name, ref.index)] = value

    def reg_binding(
        self, primary: Primary, tmpl: TemplateAST
    ) -> Union[RegValue, PairValue]:
        """Binding that must be a register; spilled values are reloaded."""
        value = self.binding(primary, tmpl)
        if isinstance(value, SpilledValue):
            assert isinstance(primary, Ref)
            value = self._reload(primary, value)
        if not isinstance(value, (RegValue, PairValue)):
            raise CodeGenError(
                f"{tmpl.op}: {primary} is bound to {value}, not a register"
            )
        return value

    def _reload(self, ref: Ref, spilled: SpilledValue) -> RegValue:
        reg = self.alloc.allocate(spilled.cls)
        assert isinstance(reg, RegValue)
        if spilled.remat is not None:
            # The -O4 planner proved this value is cheaper recomputed
            # than stored: no spill store exists, so re-execute the
            # address-arithmetic that produced it.
            op, (disp, index, base) = spilled.remat
            self.buffer.op(
                op,
                R(reg.reg),
                Mem(disp, index, base),
                comment="remat spilled operand",
            )
        else:
            load = self.machine.load_op.get(spilled.cls, "l")
            self.buffer.op(
                load,
                R(reg.reg),
                Mem(spilled.disp, 0, spilled.base),
                comment="reload spilled operand",
            )
        self.alloc.pin(reg)
        self.allocated.append(reg)
        self.rebind(ref, reg)
        return reg

    # ---- operand resolution ------------------------------------------------------

    # The resolvers below read ``bindings`` directly and fall back on
    # :meth:`binding` only for its error when a reference is unbound.

    def resolve_int(self, primary: Primary, tmpl: TemplateAST) -> int:
        """A numeric value: attribute, constant, literal or register number."""
        tp = type(primary)
        if tp is Number:
            return primary.value
        if tp is Name:
            value = self.gen.constants.get(primary.name)
            if value is None:
                raise CodeGenError(
                    f"{tmpl.op}: constant {primary.name!r} has no value in "
                    f"the spec or machine description"
                )
            return value
        value = self.bindings.get((primary.name, primary.index))
        if value is None:
            value = self.binding(primary, tmpl)
        tv = type(value)
        if tv is SpilledValue:
            value = self._reload(primary, value)
            tv = RegValue
        if tv is AttrValue:
            return value.value
        if tv is RegValue:
            return value.reg
        if tv is PairValue:
            return value.even
        raise CodeGenError(
            f"{tmpl.op}: {primary} resolves to {value}, not a number"
        )

    def resolve_reg(self, primary: Primary, tmpl: TemplateAST) -> int:
        """A register *number* or numeric field (address index/base
        parts, branch spares, SS-format lengths riding the index slot)."""
        if type(primary) is not Ref:
            return self.resolve_int(primary, tmpl)
        value = self.bindings.get((primary.name, primary.index))
        if value is None:
            value = self.binding(primary, tmpl)
        tv = type(value)
        if tv is AttrValue:
            return value.value
        if tv is SpilledValue:
            value = self._reload(primary, value)
            tv = RegValue
        if tv is RegValue:
            return value.reg
        if tv is PairValue:
            return value.even
        raise CodeGenError(
            f"{tmpl.op}: {primary} is bound to {value}, not a register"
        )

    def resolve_operand(self, operand: OperandAST, tmpl: TemplateAST) -> Operand:
        """Fill in one instruction operand from the translation stack."""
        base = operand.base
        index = operand.index
        if index is not None:
            # The address form; dsp(b)'s one parenthesized part is the
            # base register.
            disp = self.resolve_int(base, tmpl)
            if operand.base_reg is None:
                return Mem(disp, 0, self.resolve_reg(index, tmpl))
            return Mem(
                disp,
                self.resolve_reg(index, tmpl),
                self.resolve_reg(operand.base_reg, tmpl),
            )
        if type(base) is not Ref:
            return Imm(self.resolve_int(base, tmpl))
        value = self.bindings.get((base.name, base.index))
        if value is None:
            value = self.binding(base, tmpl)
        tv = type(value)
        if tv is AttrValue:
            return Imm(value.value)
        if tv is SpilledValue:
            value = self._reload(base, value)
            tv = RegValue
        if tv is RegValue:
            n = value.reg
        elif tv is PairValue:
            n = value.even
        else:
            raise CodeGenError(
                f"{tmpl.op}: operand {base} is bound to {value}"
            )
        # The shared R operand (a fresh one out of the interned range).
        return R_INTERNED[n] if 0 <= n < _NR_INTERNED else R(n)

    # ---- emission -------------------------------------------------------------------

    def emit_instr(self, instr: Instr) -> None:
        self.buffer.emit(instr)

    # ---- prefixing and release bookkeeping ----------------------------------------------

    def prefix_token(self, token: IFToken) -> None:
        # Tokens handlers prefix (PUSH_ODD results, FIND_COMMON
        # addresses) re-enter the coded hot loop, so stamp the interned
        # code here rather than per step in the parser.
        if token.code is None:
            token = IFToken(
                token.symbol,
                token.value,
                token.sem,
                self.gen._code_get(token.symbol, -1),
            )
        self.prefix.append(token)

    def suppress_release(self, value: StackValue) -> None:
        self._suppressed.append(value)

    def is_suppressed(self, value: StackValue) -> bool:
        return id(value) in map(id, self._suppressed)  # identity scan

    def forget_allocation(self, value: StackValue) -> None:
        self.allocated = [a for a in self.allocated if a is not value]


class _Run:
    """Mutable state for one :meth:`CodeGenerator.generate` call."""

    __slots__ = (
        "gen", "frame", "buffer", "labels", "cse", "stats", "stack",
        "alloc", "active_ctx",
    )

    def __init__(
        self,
        gen: "CodeGenerator",
        frame: Optional[Frame],
        buffer: Optional[CodeBuffer] = None,
        labels: Optional[LabelDictionary] = None,
        cse: Optional[CseManager] = None,
        stats: Optional[Dict[str, Any]] = None,
        spill_plan: Tuple[SpillDirective, ...] = (),
    ):
        self.gen = gen
        self.frame = frame
        # The emission targets may be shared across calls: the graceful-
        # degradation driver generates one routine at a time into a single
        # program-wide buffer/label dictionary so a blocked routine can be
        # re-generated by the baseline without losing its siblings.
        self.buffer = buffer if buffer is not None else CodeBuffer()
        self.labels = labels if labels is not None else LabelDictionary()
        self.cse = cse if cse is not None else CseManager()
        self.stats: Dict[str, Any] = stats if stats is not None else {}
        self.stack: List[Tuple[int, str, StackValue]] = []
        #: The reduction being emitted.  Per run, not per generator: the
        #: compile server runs concurrent generate() calls on one
        #: CodeGenerator.
        self.active_ctx: Optional[EmissionContext] = None
        self.alloc = RegisterAllocator(
            gen.machine,
            on_move=self._on_move,
            on_spill=self._on_spill,
            on_free=self.buffer.note_death,
            strategy=gen.allocation_strategy,
            spill_plan=spill_plan,
        )

    # Translation-stack patching hooks (paper 4.1: "the translation stack
    # is updated to reflect the change in the location of the result").

    def _patch_values(self, old: StackValue, new: StackValue) -> None:
        for i, (state, sym, value) in enumerate(self.stack):
            if value == old:
                self.stack[i] = (state, sym, new)
        ctx = self.active_ctx
        if ctx is not None:
            for key, value in list(ctx.bindings.items()):
                if value == old:
                    ctx.bindings[key] = new

    def _on_move(self, cls_nt: str, dst: int, src: int) -> None:
        move = self.gen.machine.move_op.get(cls_nt, "lr")
        self.buffer.op(move, R(dst), R(src), comment="need: shuffle")
        old = RegValue(src, cls_nt)
        new = RegValue(dst, cls_nt)
        self._patch_values(old, new)
        for record in self.cse.records().values():
            if record.reg == old:
                self.cse.lookup(record.cse_id).reg = new

    def _on_spill(self, cls_nt: str, reg: int) -> None:
        event = self.alloc.spill_log[-1]
        old = RegValue(reg, cls_nt)
        cse_id = self.alloc.cse_of(old)
        if cse_id is not None:
            record = self.cse.lookup(cse_id)
            store = "st" if record.size == "full" else (
                "sth" if record.size == "half" else "stc"
            )
            self.buffer.op(
                store,
                R(reg),
                Mem(record.disp, 0, record.base),
                comment=f"spill CSE {cse_id}",
            )
            self.cse.evict(cse_id)
            self._patch_values(
                old, SpilledValue(cls_nt, record.disp, record.base)
            )
            # A CSE's home slot must always be written (later FIND_COMMON
            # reductions read it), so directives never skip this store.
            event.cse = cse_id
            event.store_index = len(self.buffer.items) - 1
            event.scratch = (record.disp, record.base)
            return
        if self.frame is None:
            raise RegisterPressureError(
                f"class {cls_nt!r} exhausted and no frame provides "
                f"scratch temporaries",
                cls_name=cls_nt,
                occupancy=self.alloc.occupancy(cls_nt),
            )
        # The scratch slot is allocated even when the store is skipped so
        # the frame layout -- and with it every later directive's
        # displacement reasoning -- stays identical to the probe pass.
        disp = self.frame.alloc_temp(4)
        plan = self.alloc.spill_plan
        directive = plan[event.ordinal] if event.planned else None
        if directive is not None and directive.skip_store:
            if directive.remat is not None:
                # Rematerialized value: no store, and every reload
                # re-executes the producing instruction instead.
                new = SpilledValue(
                    cls_nt, disp, self.frame.base_reg,
                    remat=directive.remat,
                )
                event.remat = True
            elif directive.alt_disp is not None:
                # Clean value: reloads read the location that already
                # holds it (e.g. the variable it was loaded from).
                new = SpilledValue(
                    cls_nt, directive.alt_disp, directive.alt_base
                )
            else:
                # Dead value: the probe proved the slot is never read, so
                # the slot stays unwritten and the patched value is never
                # reloaded.
                new = SpilledValue(cls_nt, disp, self.frame.base_reg)
            event.skipped = True
            event.store_index = len(self.buffer.items)
            event.scratch = (disp, self.frame.base_reg)
            self._patch_values(old, new)
            return
        store = self.gen.machine.store_op.get(cls_nt, "st")
        self.buffer.op(
            store,
            R(reg),
            Mem(disp, 0, self.frame.base_reg),
            comment="spill: register pressure",
        )
        event.store_index = len(self.buffer.items) - 1
        event.scratch = (disp, self.frame.base_reg)
        self._patch_values(
            old, SpilledValue(cls_nt, disp, self.frame.base_reg)
        )


def _origin_tag(tmpl: TemplateAST) -> str:
    """Provenance tag for instructions this template emits: the spec
    line number plus the template text, enough for the SL05x sanitizer
    to point at the responsible spec line."""
    return f"spec line {tmpl.line}: {tmpl}"


def _no_handler(ctx: EmissionContext, tmpl: TemplateAST) -> None:
    """The handler of a semantic operator no table registers: the error
    stays lazy, raised when a reduction reaches the template."""
    raise CodeGenError(f"no handler for semantic operator {tmpl.op!r}")


class _ProdPlan:
    """Precompiled per-production reduction plan.

    Everything the emission routine can decide from the production alone
    is decided once at generator construction: RHS binding positions,
    the ``using``/``need`` allocation requests, the template dispatch
    and the precoded LHS/lambda tokens to prefix.  The reduction hot
    path then just walks tuples.

    ``exec_steps`` holds one ``(handler, tmpl, origin)`` per template
    other than ``using``/``need``: ``(None, tmpl, origin)`` for an
    opcode template, whose instructions carry the provenance tag
    ``origin``, and ``(handler, tmpl, None)`` for a semantic operator.
    """

    __slots__ = (
        "prod", "nrhs", "wrapper_token", "binding_refs", "alloc_steps",
        "exec_steps", "lambda_token", "lhs_symbol", "lhs_key", "lhs_code",
        "first_tmpl", "is_chain",
    )

    def __init__(self, prod: Production, gen: "CodeGenerator", code_get):
        self.prod = prod
        self.nrhs = len(prod.rhs)
        # Wrapper and lambda prefix tokens are immutable and identical
        # across reductions, so one shared instance each suffices.
        self.wrapper_token = (
            IFToken(prod.lhs, sem=LambdaValue(), code=code_get(prod.lhs, -1))
            if prod.is_wrapper else None
        )
        self.binding_refs = tuple(
            ((ref.name, ref.index), pos)
            for pos, ref in enumerate(prod.rhs_refs)
            if ref is not None
        )
        alloc_steps = []
        exec_steps = []
        for tmpl in prod.templates:
            if tmpl.op in ("using", "need"):
                for operand in tmpl.operands:
                    ref = operand.base
                    assert isinstance(ref, Ref)
                    alloc_steps.append((tmpl.op == "using", ref))
                continue
            if tmpl.op in gen._opcode_names:
                exec_steps.append((None, tmpl, _origin_tag(tmpl)))
            else:
                handler = gen.handlers.get(tmpl.op, _no_handler)
                exec_steps.append((handler, tmpl, None))
        self.alloc_steps = tuple(alloc_steps)
        self.exec_steps = tuple(exec_steps)
        self.lambda_token = (
            IFToken(
                LAMBDA_SYMBOL,
                sem=LambdaValue(),
                code=code_get(LAMBDA_SYMBOL, -1),
            )
            if prod.is_lambda else None
        )
        lhs_ref = prod.lhs_ref
        self.lhs_symbol = prod.lhs
        self.lhs_key = (
            (lhs_ref.name, lhs_ref.index) if lhs_ref is not None else None
        )
        self.lhs_code = code_get(prod.lhs, -1)
        self.first_tmpl = (
            prod.templates[0] if prod.templates
            else TemplateAST("lhs", (), "", 0)
        )
        #: Chain productions (one RHS symbol whose ref *is* the LHS ref,
        #: no templates) reduce to "pop the value, prefix it under the
        #: LHS symbol": the parser inlines them without building an
        #: EmissionContext.  The RHS pin / LHS acquire / RHS release of
        #: the full path is a net no-op on the allocator for these.
        self.is_chain = (
            not prod.is_wrapper
            and not prod.is_lambda
            and not prod.templates
            and self.nrhs == 1
            and self.lhs_key is not None
            and self.binding_refs == ((self.lhs_key, 0),)
        )


#: Reductions of one production, counted per generator, after which its
#: slot swaps the generic :meth:`CodeGenerator._reduce` for a reducer
#: compiled from the production's plan by :mod:`repro.core.specialize`.
#: A compiled reducer costs a few milliseconds to emit and compile and
#: saves a few microseconds per reduction, so only productions that keep
#: being reduced are worth it; a small program compiles none.
COMPILE_THRESHOLD = 16


class CodeGenerator:
    """A ready-to-run table-driven code generator for one machine.

    ``tables`` may be dense (:class:`~repro.core.tables.ParseTables`) or
    compressed (:class:`~repro.core.lr.compress.CompressedTables`); both
    expose the same coded-lookup contract the skeletal parser drives.

    Reductions run in two tiers.  Every production that needs the
    emission routine owns a reducer slot, which starts as the generic
    :meth:`_reduce`.  A production's :data:`COMPILE_THRESHOLD`-th
    reduction replaces its slot with a straight-line reducer compiled
    from its :class:`_ProdPlan` (:mod:`repro.core.specialize`); the two
    emit identical code.  ``compile_threshold = None`` keeps every slot
    generic: that is the reference the compiled reducers are tested
    against, not a user-facing option.
    """

    def __init__(
        self,
        sdts: SDTS,
        tables: Union[ParseTables, CompressedTables],
        machine: MachineDescription,
        allocation_strategy: str = "lru",
    ):
        self.sdts = sdts
        self.tables = tables
        self.machine = machine
        self.allocation_strategy = allocation_strategy
        self.compile_threshold: Optional[int] = COMPILE_THRESHOLD
        self.handlers = dict(STANDARD_HANDLERS)
        self.handlers.update(machine.semop_handlers)
        self.constants = template_constants(sdts, machine)
        self._opcode_names = {
            s.name
            for s in sdts.symtab
            if s.kind is SymKind.OPCODE
        }
        sym_index = tables.sym_index
        self._code_get = sym_index.get
        self._end_token = IFToken(
            END_MARKER, code=sym_index.get(END_MARKER, -1)
        )
        #: Action rows indexed ``[state][column]``: the dense matrix
        #: itself, or per-state views over the compressed arrays.
        self._rows = (
            tables.matrix if type(tables) is ParseTables
            else tables.row_views()
        )
        #: Per-column shift-value dispatch: ``None`` for a plain symbol
        #: (an attribute or no value), else ``(tag, members)`` with tag
        #: 0 = register class, 1 = pair class, 2 = condition code,
        #: 3 = lambda.  Register tokens outside ``members`` go through
        #: :meth:`_shift_value` for its diagnostics.
        shift_fast: List[Optional[Tuple[int, Any]]] = []
        for sym in tables.symbols:
            cls = machine.register_class(sym)
            if cls is None:
                shift_fast.append((3, None) if sym == LAMBDA_SYMBOL else None)
            elif cls.kind is ClassKind.CC:
                shift_fast.append((2, None))
            else:
                shift_fast.append((
                    1 if cls.kind is ClassKind.PAIR else 0,
                    frozenset(cls.members),
                ))
        self._shift_fast = shift_fast
        self._plans = [
            _ProdPlan(prod, self, sym_index.get)
            for prod in sdts.productions
        ]
        #: 0 = wrapper, 1 = chain (both inlined in the main loop),
        #: 2 = a reduction through the production's reducer slot.
        self._kinds = [
            0 if p.wrapper_token is not None else (1 if p.is_chain else 2)
            for p in self._plans
        ]
        self._nrhs = [p.nrhs for p in self._plans]
        #: (code, symbol, value) of a wrapper's LHS; (code, symbol, None)
        #: of a chain's.
        self._gotos: List[Optional[Tuple[int, str, StackValue]]] = [
            (p.wrapper_token.code, p.lhs_symbol, p.wrapper_token.sem)
            if p.wrapper_token is not None
            else (p.lhs_code, p.lhs_symbol, None) if p.is_chain
            else None
            for p in self._plans
        ]
        self._reducers: List[Optional[Callable]] = [None] * len(self._plans)
        self.drop_compiled_reducers()

    # ---- reducer slots ---------------------------------------------------------------

    def drop_compiled_reducers(self) -> None:
        """Put every reducer slot back on the generic :meth:`_reduce`,
        with its reduction count at zero.  The slots are replaced in
        place, so a ``generate`` call in flight sees the change at its
        next reduction."""
        self._reducers[:] = [
            self._generic_slot(pid) if kind else None
            for pid, kind in enumerate(self._kinds)
        ]

    def _generic_slot(self, pid: int) -> Callable:
        plan = self._plans[pid]
        reduce = self._reduce
        if self._kinds[pid] == 1:
            # A chain reaches its slot only with a spilled or unbound
            # value; nothing there is worth compiling.
            return lambda run, stack, front: reduce(run, front, plan)
        # Threads share the slots without a lock: a lost count delays a
        # compile, and two threads crossing the threshold together each
        # install an equivalent reducer.
        count = 0

        def generic(run, stack, front):
            nonlocal count
            count += 1
            threshold = self.compile_threshold
            if threshold is not None and count >= threshold:
                compiled = self._compile_reducer(pid)
                self._reducers[pid] = compiled
                return compiled(run, stack, front)
            return reduce(run, front, plan)

        return generic

    def _compile_reducer(self, pid: int) -> Callable:
        # Imported lazily: the specializer imports this module.
        from repro.core import specialize

        return specialize.load_module(
            specialize.emit_module(self, pid), self, pid
        )

    # ---- value construction on shift ------------------------------------------------

    def _shift_value(self, token: IFToken) -> StackValue:
        if token.sem is not None:
            return token.sem
        cls = self.machine.register_class(token.symbol)
        if cls is not None:
            if cls.kind is ClassKind.CC:
                return CCValue()
            if token.value is None:
                raise CodeGenError(
                    f"register token {token.symbol!r} in the IF carries no "
                    f"register number"
                )
            if token.value not in cls.members:
                raise CodeGenError(
                    f"register token {token.symbol!r} names register "
                    f"{token.value!r}, not a member of class {cls.name!r}"
                )
            if cls.kind is ClassKind.PAIR:
                return PairValue(token.value, token.symbol)
            return RegValue(token.value, token.symbol)
        if token.symbol == LAMBDA_SYMBOL:
            return LambdaValue()
        if token.value is not None:
            return AttrValue(token.symbol, token.value)
        return None  # operators carry no semantic value

    # ---- the main loop -----------------------------------------------------------------

    def generate(
        self,
        tokens: Iterable[IFToken],
        frame: Optional[Frame] = None,
        guards: Optional[ParserGuards] = None,
        buffer: Optional[CodeBuffer] = None,
        labels: Optional[LabelDictionary] = None,
        cse: Optional[CseManager] = None,
        stats: Optional[Dict[str, Any]] = None,
        spill_plan: Tuple[SpillDirective, ...] = (),
    ) -> GeneratedCode:
        """Parse a linearized IF stream and emit code.

        Raises :class:`~repro.errors.CodeGenError` when the parse blocks --
        per the paper, the generator "will stop and signal an error"
        rather than emit a wrong sequence.  Blocking raises the structured
        :class:`~repro.errors.CodeGenBlockedError`; the watchdogs in
        ``guards`` convert the two ways a Graham-Glanville parse can spin
        forever (chain-rule reduction loops, runaway table corruption)
        into :class:`~repro.errors.ChainLoopError` and
        :class:`~repro.errors.StepBudgetError`.

        ``buffer``/``labels``/``cse`` let a driver share one emission
        target across several calls (per-routine generation with
        fallback); by default each call gets fresh state.
        ``spill_plan`` is the register allocator's eviction plan
        (:mod:`repro.opt.spillplan`); ``stats["spill_log"]`` lists the
        run's evictions.

        The loop runs on interned symbol codes: every token is stamped
        with its parse-table column on intake (or arrives pre-stamped by
        ``linearize(..., codes=tables.sym_index)``), and symbol strings
        surface only on the error paths.  The input is read by index;
        tokens a reduction prefixes (its LHS, or what semantic operators
        push) wait on a LIFO list in front of it.  When the LHS's action
        in the uncovered state is a shift, the reduction and that shift
        run as one iteration (``steps`` and the chain watchdog advance
        by two, as for the two iterations they stand for).
        """
        run = _Run(
            self, frame, buffer=buffer, labels=labels, cse=cse, stats=stats,
            spill_plan=spill_plan,
        )
        # Intake: pre-stamped codes must come from this generator's own
        # tables (columns are a per-build assignment); every in-repo
        # producer linearizes against build.tables.
        toks = tokens if type(tokens) is list else list(tokens)
        for t in toks:
            if t.code is None:
                code_get = self._code_get
                toks = [
                    t if t.code is not None
                    else IFToken(t.symbol, t.value, t.sem,
                                 code_get(t.symbol, -1))
                    for t in toks
                ]
                break
        ntoks = len(toks)
        i = 0
        front: List[IFToken] = []
        stack = run.stack
        stack.append((0, "<bottom>", None))
        reductions = 0

        guards = guards if guards is not None else DEFAULT_GUARDS
        budget = guards.step_budget
        if budget is None:
            budget = max(10_000, 64 * (ntoks + 1))
        chain_limit = guards.chain_limit
        steps = 0
        #: steps since the parse last made real progress (consumed an
        #: original token or reached a new stack-depth minimum).
        chain_steps = 0
        min_depth = 1
        rows = self._rows
        nstates = len(rows)
        #: Shift actions encode state s as 2 + 2s.
        shift_end = 2 + 2 * nstates
        kinds = self._kinds
        nrhs = self._nrhs
        gotos = self._gotos
        nproductions = len(kinds)
        reducers = self._reducers
        shift_fast = self._shift_fast
        end_token = self._end_token
        annotate = self._annotate
        alloc = run.alloc
        state = 0
        row = rows[0]

        while True:
            if steps >= budget:
                raise StepBudgetError(
                    f"parse exceeded its step budget of {budget} "
                    f"(state {state}, {ntoks - i + len(front)} tokens "
                    f"unconsumed): corrupted tables or malformed IF?",
                    budget=budget,
                )
            steps += 1
            if chain_steps >= chain_limit:
                recent = " ".join(sym for _, sym, _ in stack[-8:])
                raise ChainLoopError(
                    f"chain-rule loop: {chain_steps} steps without "
                    f"consuming input in state {state} "
                    f"(stack ... {recent})",
                    state=state,
                    stack=[(s, sym) for s, sym, _ in stack],
                    steps=chain_steps,
                )
            lookahead = front[-1] if front else (
                toks[i] if i < ntoks else end_token
            )
            col = lookahead.code
            action = row[col] if col >= 0 else T.ERROR
            if action >= 2:
                if not action & 1:
                    # SHIFT (even >= 2): covers terminals, operators and
                    # the goto-as-shift of prefixed non-terminals.
                    if action >= shift_end:
                        raise annotate(
                            CodeGenError(
                                f"corrupt parse table: shift to state "
                                f"{(action - 2) >> 1} of {nstates}"
                            ),
                            run, lookahead,
                        )
                    value = lookahead.sem
                    if value is None:
                        fast = shift_fast[col]
                        v = lookahead.value
                        if fast is None:
                            if v is not None:
                                value = AttrValue(lookahead.symbol, v)
                        else:
                            tag, members = fast
                            if tag < 2 and v is not None and v in members:
                                value = (
                                    RegValue(v, lookahead.symbol) if tag == 0
                                    else PairValue(v, lookahead.symbol)
                                )
                            elif tag == 2:
                                value = CCValue()
                            elif tag == 3:
                                value = LambdaValue()
                            else:
                                try:
                                    value = self._shift_value(lookahead)
                                except CodeGenError as error:
                                    raise annotate(error, run, lookahead)
                    state = (action - 2) >> 1
                    row = rows[state]
                    stack.append((state, lookahead.symbol, value))
                    if front:
                        del front[-1]
                        chain_steps += 1
                    elif i < ntoks:
                        i += 1
                        chain_steps = 0
                        min_depth = len(stack)
                    else:
                        chain_steps += 1
                    continue
                # REDUCE (odd >= 3)
                pid = (action - 3) >> 1
                if pid >= nproductions:
                    raise annotate(
                        CodeGenError(
                            f"corrupt parse table: reduce by unknown "
                            f"production {pid} of {nproductions}"
                        ),
                        run, lookahead,
                    )
                if nrhs[pid] >= len(stack):
                    raise annotate(
                        CodeGenError(
                            f"corrupt parse table: reduce by production "
                            f"{pid} pops below the stack bottom"
                        ),
                        run, lookahead,
                    )
                # Every branch leaves (code, symbol, value) of the LHS to
                # shift next, or code None once the tokens to re-parse
                # are on ``front``.
                kind = kinds[pid]
                if kind == 0:
                    # Wrapper: no templates, no allocation -- pop the RHS
                    # and shift the LHS with its shared lambda value.
                    n = nrhs[pid]
                    if n:
                        del stack[-n:]
                    code, symbol, value = gotos[pid]
                elif (
                    kind == 1 and stack[-1][2] is not None
                    and type(stack[-1][2]) is not SpilledValue
                ):
                    # Chain: the popped value rides through under the
                    # LHS symbol.
                    code, symbol, _ = gotos[pid]
                    value = stack.pop()[2]
                    alloc.global_index += 1  # begin_reduction
                else:
                    # The production's reducer slot.  A chain's slot is
                    # the generic reducer, for the reload of a spilled
                    # value and the error on an unbound (None) one.
                    try:
                        goto = reducers[pid](run, stack, front)
                    except CodeGenError as error:
                        raise annotate(error, run, lookahead)
                    if goto is None:
                        code = None
                    else:
                        code, symbol, value = goto
                reductions += 1
                depth = len(stack)
                if code is not None:
                    fused = rows[stack[-1][0]][code] if code >= 0 else 0
                    # A corrupt shift target takes the unfused path, whose
                    # next iteration reports it.
                    if fused >= 2 and not fused & 1 and fused < shift_end:
                        state = (fused - 2) >> 1
                        row = rows[state]
                        stack.append((state, symbol, value))
                        steps += 1
                        if depth < min_depth:
                            min_depth = depth
                            chain_steps = 1
                        else:
                            chain_steps += 2
                        continue
                    front.append(IFToken(symbol, None, value, code))
                state = stack[-1][0]
                row = rows[state]
                if depth < min_depth:
                    min_depth = depth
                    chain_steps = 0
                else:
                    chain_steps += 1
                continue
            if action == T.ACCEPT:
                if front or i < ntoks:
                    raise annotate(
                        CodeGenError(
                            "accepted before the IF stream was exhausted"
                        ),
                        run, lookahead,
                    )
                break
            self._signal_error(run, lookahead)

        run.stats["spill_log"] = run.alloc.spill_log
        return GeneratedCode(
            buffer=run.buffer,
            labels=run.labels,
            cse=run.cse,
            stats=run.stats,
            reductions=reductions,
        )

    @staticmethod
    def _annotate(
        error: CodeGenError, run: _Run, lookahead: IFToken
    ) -> CodeGenError:
        """Attach LR-machine context to an in-flight error (once)."""
        if getattr(error, "lr_state", None) is not None:
            return error
        state = run.stack[-1][0]
        error.lr_state = state
        error.stack_depth = len(run.stack)
        error.if_token = lookahead
        if error.args:
            error.args = (
                f"{error.args[0]} [LR state {state}, stack depth "
                f"{len(run.stack)}, at IF token {lookahead}]",
            ) + error.args[1:]
        return error

    def _signal_error(self, run: _Run, lookahead: IFToken) -> None:
        # Imported lazily: repro.analysis must stay importable without
        # the runtime, and vice versa.
        from repro.analysis.expected import render_expected

        state = run.stack[-1][0]
        expected = self.tables.expected_symbols(state)
        recent = " ".join(sym for _, sym, _ in run.stack[-8:])
        shown = render_expected(self.sdts, expected)
        raise CodeGenBlockedError(
            f"code generator blocked: no action in state {state} for "
            f"lookahead {lookahead} (stack ... {recent}; expected "
            f"{shown})",
            state=state,
            lookahead=lookahead,
            stack=[(s, sym) for s, sym, _ in run.stack],
            expected=expected,
        )

    # ---- the code emission routine --------------------------------------------------------

    def _reduce(
        self, run: _Run, front: List[IFToken], plan: _ProdPlan
    ) -> Optional[Tuple[int, str, StackValue]]:
        """The generic reducer: the paper's emission routine, driven by
        the production's plan.

        Returns ``(code, symbol, value)`` of the LHS for the main loop
        to shift, or ``None`` after pushing the tokens to re-parse --
        what semantic operators prefixed, then the LHS -- onto
        ``front`` (LIFO: the last one pushed is read first).
        """
        stack = run.stack
        n = plan.nrhs
        values = [v for (_, _, v) in stack[-n:]] if n else []
        if n:
            del stack[-n:]

        alloc = run.alloc
        alloc.global_index += 1  # begin_reduction (paper 4.1)
        ctx = EmissionContext(self, run, plan.prod, values, plan)
        run.active_ctx = ctx
        try:
            # Allocate requested registers.  Paper 4.1: "the call to the
            # register allocator is made prior to acting upon any of the
            # templates; all registers required by the template sequence
            # are allocated at one time".
            for value in values:
                tv = type(value)
                if tv is RegValue or tv is PairValue:
                    alloc.pin(value)
            for is_using, ref in plan.alloc_steps:
                if is_using:
                    value = alloc.allocate(ref.name)
                else:
                    value = alloc.reserve(ref.name, ref.index)
                ctx.bindings[(ref.name, ref.index)] = value
                ctx.allocated.append(value)
                tv = type(value)
                if tv is RegValue or tv is PairValue:
                    alloc.pin(value)
            # Run the template sequence: fill in each opcode template's
            # operands and append the instruction, or hand the template
            # to its semantic operator.
            items = run.buffer.items
            origins = run.buffer.origins
            resolve = ctx.resolve_operand
            for handler, tmpl, origin in plan.exec_steps:
                if handler is None:
                    items.append(Instr(
                        tmpl.op,
                        tuple(map(resolve, tmpl.operands, repeat(tmpl))),
                        tmpl.comment,
                    ))
                    origins[len(items) - 1] = origin
                else:
                    handler(ctx, tmpl)
            return self._finish(ctx, plan, front)
        finally:
            run.active_ctx = None
            alloc.unpin_all()

    @staticmethod
    def _finish(
        ctx: EmissionContext, plan: _ProdPlan, front: List[IFToken]
    ) -> Optional[Tuple[int, str, StackValue]]:
        """The emission routine's epilogue (paper 4.1), shared by the
        generic reducer and every compiled reducer with a context: push
        back the LHS, release the RHS and scratch uses, and hand over
        the LHS or push what was prefixed onto ``front``.  Runs while
        the reduction's pins still hold."""
        alloc = ctx.alloc
        goto: Optional[Tuple[int, str, StackValue]] = None
        if plan.lambda_token is not None:
            token = plan.lambda_token
            goto = (token.code, token.symbol, token.sem)
        elif not ctx.ignore_lhs:
            lhs_ref = ctx.prod.lhs_ref
            assert lhs_ref is not None
            lhs_value = ctx.bindings.get(plan.lhs_key)
            if lhs_value is None:
                raise CodeGenError(
                    f"LHS {lhs_ref} unbound at end of {ctx.prod}"
                )
            tv = type(lhs_value)
            if tv is SpilledValue:
                lhs_value = ctx.reg_binding(lhs_ref, plan.first_tmpl)
                tv = type(lhs_value)
            if tv is RegValue or tv is PairValue:
                alloc.acquire(lhs_value)
            goto = (plan.lhs_code, plan.lhs_symbol, lhs_value)

        # Consume the RHS operands: "When a register is allocated, its
        # use count is decremented" -- each consumed stack operand gives
        # back one use.
        suppressed = ctx._suppressed
        for value in ctx.values:
            tv = type(value)
            if tv is RegValue or tv is PairValue:
                if not suppressed or not ctx.is_suppressed(value):
                    alloc.release(value)
        # Scratch registers allocated for this reduction but not pushed
        # give back their allocation use.
        for value in ctx.allocated:
            tv = type(value)
            if tv is RegValue or tv is PairValue:
                alloc.release(value)

        # Most reductions prefix nothing and hand the LHS straight back
        # to the main loop.
        prefix = ctx.prefix
        if not prefix:
            return goto
        if goto is not None:
            code, symbol, value = goto
            prefix.append(IFToken(symbol, None, value, code))
        front.extend(reversed(prefix))
        return None
