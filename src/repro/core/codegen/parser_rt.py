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

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Iterable, List, Optional, Tuple, Union

from repro.errors import (
    ChainLoopError,
    CodeGenBlockedError,
    CodeGenError,
    RegisterPressureError,
    SpecializeError,
    StepBudgetError,
)
from repro.core import buildstats
from repro.core import tables as T
from repro.core.grammar import END_MARKER, LAMBDA_SYMBOL, SDTS, Production
from repro.core.machine import ClassKind, MachineDescription
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

_NR_INTERNED = len(R_INTERNED)


def _reg(n: int) -> R:
    """The shared ``R`` operand for register ``n`` (fresh if out of range)."""
    return R_INTERNED[n] if 0 <= n < _NR_INTERNED else R(n)
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
        plan: Optional["_ProdPlan"] = None,
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
        if plan is not None:
            for key, pos in plan.binding_refs:
                bindings[key] = values[pos]
        else:
            for pos, ref in enumerate(prod.rhs_refs):
                if ref is not None:
                    bindings[(ref.name, ref.index)] = values[pos]
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

    def resolve_constant(self, name: str, tmpl: TemplateAST) -> int:
        value = self.machine.resolve_constant(name)
        if value is None:
            info = self.gen.sdts.symtab.lookup(name)
            value = info.numeric_value if info is not None else None
        if value is None:
            raise CodeGenError(
                f"{tmpl.op}: constant {name!r} has no value in the spec or "
                f"machine description"
            )
        return value

    def resolve_int(self, primary: Primary, tmpl: TemplateAST) -> int:
        """A numeric value: attribute, constant, literal or register number."""
        if isinstance(primary, Number):
            return primary.value
        if isinstance(primary, Name):
            return self.resolve_constant(primary.name, tmpl)
        value = self.binding(primary, tmpl)
        if isinstance(value, SpilledValue):
            value = self.reg_binding(primary, tmpl)
        if isinstance(value, AttrValue):
            return value.value
        if isinstance(value, RegValue):
            return value.reg
        if isinstance(value, PairValue):
            return value.even
        raise CodeGenError(
            f"{tmpl.op}: {primary} resolves to {value}, not a number"
        )

    def resolve_reg(self, primary: Primary, tmpl: TemplateAST) -> int:
        """A register *number* or numeric field (address index/base
        parts, branch spares, SS-format lengths riding the index slot)."""
        if isinstance(primary, Ref):
            value = self.binding(primary, tmpl)
            if isinstance(value, AttrValue):
                return value.value
            value = self.reg_binding(primary, tmpl)
            return value.even if isinstance(value, PairValue) else value.reg
        return self.resolve_int(primary, tmpl)

    def mem(self, disp: int, index: int, base: int) -> Mem:
        return Mem(disp, index, base)

    def resolve_operand(self, operand: OperandAST, tmpl: TemplateAST) -> Operand:
        """Fill in one instruction operand from the translation stack."""
        if operand.is_address:
            disp = self.resolve_int(operand.base, tmpl)
            assert operand.index is not None
            if operand.base_reg is None:
                # dsp(b): single parenthesized part is the base register.
                return Mem(disp, 0, self.resolve_reg(operand.index, tmpl))
            return Mem(
                disp,
                self.resolve_reg(operand.index, tmpl),
                self.resolve_reg(operand.base_reg, tmpl),
            )
        if isinstance(operand.base, Ref):
            value = self.binding(operand.base, tmpl)
            if isinstance(value, SpilledValue):
                value = self.reg_binding(operand.base, tmpl)
            if isinstance(value, RegValue):
                return _reg(value.reg)
            if isinstance(value, PairValue):
                return _reg(value.even)
            if isinstance(value, AttrValue):
                return Imm(value.value)
            raise CodeGenError(
                f"{tmpl.op}: operand {operand.base} is bound to {value}"
            )
        return Imm(self.resolve_int(operand.base, tmpl))

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
        return any(value is s for s in self._suppressed)

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
        strategy: Optional[str] = None,
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
            strategy=strategy or gen.allocation_strategy,
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
        state = self.alloc.state(cls_nt, reg)
        event = self.alloc.last_event
        old = RegValue(reg, cls_nt)
        if state.cse is not None:
            record = self.cse.lookup(state.cse)
            store = "st" if record.size == "full" else (
                "sth" if record.size == "half" else "stc"
            )
            self.buffer.op(
                store,
                R(reg),
                Mem(record.disp, 0, record.base),
                comment=f"spill CSE {state.cse}",
            )
            self.cse.evict(state.cse)
            self._patch_values(
                old, SpilledValue(cls_nt, record.disp, record.base)
            )
            # A CSE's home slot must always be written (later FIND_COMMON
            # reductions read it), so directives never skip this store.
            if event is not None:
                event.cse = state.cse
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
        directive = self.alloc.pending_directive
        if directive is not None and directive.skip_store:
            if directive.remat is not None:
                # Rematerialized value: no store, and every reload
                # re-executes the producing instruction instead.
                new = SpilledValue(
                    cls_nt, disp, self.frame.base_reg,
                    remat=directive.remat,
                )
                if event is not None:
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
            if event is not None:
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
        if event is not None:
            event.store_index = len(self.buffer.items) - 1
            event.scratch = (disp, self.frame.base_reg)
        self._patch_values(
            old, SpilledValue(cls_nt, disp, self.frame.base_reg)
        )


#: Sentinel for a template whose semantic operator has no handler; the
#: error stays lazy (raised at reduction time), matching the uncompiled
#: runtime's behavior.
_MISSING_HANDLER = object()


# ---- template operand compilation ----------------------------------------
#
# Instruction templates are fixed at generator construction, so their
# operand ASTs compile once into small closures over the template shape;
# the per-reduction work left is the binding lookups and value dispatch.
# Each compiled scalar is (constant, None) or (None, func(ctx) -> int);
# a compiled operand is func(ctx) -> Operand, with fully-constant
# operands prebuilt and shared (R/Imm/Mem are frozen).  The closures
# reproduce the resolve_* error messages exactly.


def _compile_int(primary: Primary, tmpl: TemplateAST, gen: "CodeGenerator"):
    if isinstance(primary, Number):
        return primary.value, None
    if isinstance(primary, Name):
        name = primary.name
        value = gen.machine.resolve_constant(name)
        if value is None:
            info = gen.sdts.symtab.lookup(name)
            value = info.numeric_value if info is not None else None
        if value is None:
            def missing(ctx, name=name, tmpl=tmpl):
                raise CodeGenError(
                    f"{tmpl.op}: constant {name!r} has no value in the "
                    f"spec or machine description"
                )
            return None, missing
        return value, None
    key = (primary.name, primary.index)

    def int_ref(ctx, primary=primary, key=key, tmpl=tmpl):
        value = ctx.bindings.get(key)
        if value is None:
            raise CodeGenError(
                f"{tmpl.op}: {primary} is unbound in {ctx.prod}"
            )
        if type(value) is SpilledValue:
            value = ctx.reg_binding(primary, tmpl)
        tv = type(value)
        if tv is AttrValue:
            return value.value
        if tv is RegValue:
            return value.reg
        if tv is PairValue:
            return value.even
        raise CodeGenError(
            f"{tmpl.op}: {primary} resolves to {value}, not a number"
        )

    return None, int_ref


def _compile_reg(primary: Primary, tmpl: TemplateAST, gen: "CodeGenerator"):
    if not isinstance(primary, Ref):
        return _compile_int(primary, tmpl, gen)
    key = (primary.name, primary.index)

    def reg_ref(ctx, primary=primary, key=key, tmpl=tmpl):
        value = ctx.bindings.get(key)
        if value is None:
            raise CodeGenError(
                f"{tmpl.op}: {primary} is unbound in {ctx.prod}"
            )
        tv = type(value)
        if tv is AttrValue:
            return value.value
        if tv is SpilledValue:
            value = ctx._reload(primary, value)
            tv = type(value)
        if tv is PairValue:
            return value.even
        if tv is RegValue:
            return value.reg
        raise CodeGenError(
            f"{tmpl.op}: {primary} is bound to {value}, not a register"
        )

    return None, reg_ref


def _compile_operand(
    operand: OperandAST, tmpl: TemplateAST, gen: "CodeGenerator"
):
    if operand.is_address:
        dc, df = _compile_int(operand.base, tmpl, gen)
        assert operand.index is not None
        if operand.base_reg is None:
            # dsp(b): single parenthesized part is the base register.
            bc, bf = _compile_reg(operand.index, tmpl, gen)
            if df is None and bf is None:
                mem = Mem(dc, 0, bc)
                return lambda ctx, mem=mem: mem

            def mem1(ctx, dc=dc, df=df, bc=bc, bf=bf):
                return Mem(
                    dc if df is None else df(ctx),
                    0,
                    bc if bf is None else bf(ctx),
                )

            return mem1
        xc, xf = _compile_reg(operand.index, tmpl, gen)
        bc, bf = _compile_reg(operand.base_reg, tmpl, gen)
        if df is None and xf is None and bf is None:
            mem = Mem(dc, xc, bc)
            return lambda ctx, mem=mem: mem

        def mem2(ctx, dc=dc, df=df, xc=xc, xf=xf, bc=bc, bf=bf):
            return Mem(
                dc if df is None else df(ctx),
                xc if xf is None else xf(ctx),
                bc if bf is None else bf(ctx),
            )

        return mem2
    base = operand.base
    if isinstance(base, Ref):
        key = (base.name, base.index)

        def ref_operand(
            ctx, base=base, key=key, tmpl=tmpl,
            _rtab=R_INTERNED, _nrt=_NR_INTERNED,
        ):
            value = ctx.bindings.get(key)
            if value is None:
                raise CodeGenError(
                    f"{tmpl.op}: {base} is unbound in {ctx.prod}"
                )
            tv = type(value)
            if tv is SpilledValue:
                value = ctx._reload(base, value)
                tv = type(value)
            if tv is RegValue:
                n = value.reg
                return _rtab[n] if 0 <= n < _nrt else R(n)
            if tv is PairValue:
                n = value.even
                return _rtab[n] if 0 <= n < _nrt else R(n)
            if tv is AttrValue:
                return Imm(value.value)
            raise CodeGenError(
                f"{tmpl.op}: operand {base} is bound to {value}"
            )

        return ref_operand
    vc, vf = _compile_int(base, tmpl, gen)
    if vf is None:
        imm = Imm(vc)
        return lambda ctx, imm=imm: imm
    return lambda ctx, vf=vf: Imm(vf(ctx))


def _origin_tag(tmpl: TemplateAST) -> str:
    """Provenance tag for instructions this template emits: the spec
    line number plus the template text, enough for the SL05x sanitizer
    to point at the responsible spec line."""
    return f"spec line {tmpl.line}: {tmpl}"


def _compile_emit(tmpl: TemplateAST, gen: "CodeGenerator"):
    """Compile an opcode template into an emit closure ``f(ctx)``.

    ``Instr`` is constructed fresh per emission (downstream passes may
    annotate instructions in place); the common one- and two-operand
    arities get dedicated closures to skip the generic tuple build.
    """
    resolvers = tuple(
        _compile_operand(op, tmpl, gen) for op in tmpl.operands
    )
    op = tmpl.op
    comment = tmpl.comment
    tag = _origin_tag(tmpl)
    if len(resolvers) == 1:
        (r0,) = resolvers

        def emit1(ctx, op=op, r0=r0, comment=comment, tag=tag):
            buffer = ctx.buffer
            buffer.items.append(Instr(op, (r0(ctx),), comment))
            buffer.origins[len(buffer.items) - 1] = tag

        return emit1
    if len(resolvers) == 2:
        r0, r1 = resolvers

        def emit2(ctx, op=op, r0=r0, r1=r1, comment=comment, tag=tag):
            buffer = ctx.buffer
            buffer.items.append(Instr(op, (r0(ctx), r1(ctx)), comment))
            buffer.origins[len(buffer.items) - 1] = tag

        return emit2

    def emitn(ctx, op=op, resolvers=resolvers, comment=comment, tag=tag):
        buffer = ctx.buffer
        buffer.items.append(
            Instr(op, tuple(f(ctx) for f in resolvers), comment)
        )
        buffer.origins[len(buffer.items) - 1] = tag

    return emitn


class _ProdPlan:
    """Precompiled per-production reduction plan.

    Everything the emission routine can decide from the production alone
    is decided once at generator construction: RHS binding positions,
    the ``using``/``need`` allocation requests, the template dispatch
    (opcode emission vs. semantic-operator handler), and the precoded
    LHS/lambda tokens to prefix.  The reduction hot path then just walks
    tuples.
    """

    __slots__ = (
        "prod", "nrhs", "wrapper_token", "binding_refs", "alloc_steps",
        "exec_steps", "lambda_token", "lhs_symbol", "lhs_key", "lhs_code",
        "first_tmpl", "is_chain", "needs_pins",
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
                exec_steps.append((None, _compile_emit(tmpl, gen)))
            else:
                handler = gen.handlers.get(tmpl.op, _MISSING_HANDLER)
                exec_steps.append((handler, tmpl))
        self.alloc_steps = tuple(alloc_steps)
        self.exec_steps = tuple(exec_steps)
        #: Pinning RHS registers only matters when this reduction can
        #: allocate (and hence evict): USING/NEED requests, semantic
        #: operators, or a spilled-operand reload (checked dynamically).
        self.needs_pins = bool(alloc_steps) or any(
            handler is not None for handler, _ in exec_steps
        )
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


class CodeGenerator:
    """A ready-to-run table-driven code generator for one machine.

    ``tables`` may be dense (:class:`~repro.core.tables.ParseTables`) or
    compressed (:class:`~repro.core.lr.compress.CompressedTables`); both
    expose the same coded-lookup contract the skeletal parser drives.
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
        #: Optional compiled engine from :mod:`repro.core.specialize`
        #: (attached by the build cache).  ``None`` means interpret the
        #: tables; a mid-run :class:`~repro.errors.SpecializeError`
        #: demotes back to ``None`` with ``specialize_degraded_reason``
        #: recorded -- specialization is never a correctness dependency.
        self.specialized: Optional[Any] = None
        self.specialize_degraded_reason: Optional[str] = None
        self.specialize_info: Dict[str, Any] = {}
        self.handlers = dict(STANDARD_HANDLERS)
        self.handlers.update(machine.semop_handlers)
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
        #: Per-column shift dispatch: 0 = plain symbol (AttrValue or no
        #: value), 1 = anything needing the validating slow path
        #: (register classes, lambda).  Indexed by interned code.
        self._shift_kinds = [
            1 if (machine.register_class(sym) is not None
                  or sym == LAMBDA_SYMBOL)
            else 0
            for sym in tables.symbols
        ]
        self._plans = [
            _ProdPlan(prod, self, sym_index.get)
            for prod in sdts.productions
        ]

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
        strategy: Optional[str] = None,
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

        The loop runs on interned symbol codes: every token is stamped
        with its parse-table column on intake (or arrives pre-stamped by
        ``linearize(..., codes=tables.sym_index)``), the action decode is
        inlined arithmetic on the halfword encoding, and symbol strings
        surface only on the error paths.

        When the build cache attached a specialized engine
        (:mod:`repro.core.specialize`) and the emission targets are not
        caller-shared, the call runs through the compiled module
        instead; a :class:`~repro.errors.SpecializeError` from the
        engine demotes this generator to the interpreted lane for good
        and regenerates from scratch, stamping ``degraded_reason`` into
        the result's stats.  Output is byte-identical either way.
        """
        engine = self.specialized
        if (
            engine is not None
            and buffer is None and labels is None and cse is None
            # Strategy/plan overrides need the interpreted runtime's
            # spill-log instrumentation; the compiled engine has none.
            and strategy is None and not spill_plan
        ):
            if not isinstance(tokens, list):
                # The fallback path must be able to re-read the stream.
                tokens = list(tokens)
            try:
                generated = engine(
                    tokens, frame=frame, guards=guards, stats=stats
                )
            except SpecializeError as error:
                self.specialized = None
                self.specialize_degraded_reason = str(error)
                buildstats.bump("specialize_degraded")
            else:
                generated.stats["specialized"] = True
                return generated
        generated = self._generate_coded(
            tokens, frame=frame, guards=guards, buffer=buffer,
            labels=labels, cse=cse, stats=stats,
            strategy=strategy, spill_plan=spill_plan,
        )
        if self.specialize_degraded_reason:
            generated.stats["specialized"] = False
            generated.stats["degraded_reason"] = (
                self.specialize_degraded_reason
            )
        return generated

    def _generate_coded(
        self,
        tokens: Iterable[IFToken],
        frame: Optional[Frame] = None,
        guards: Optional[ParserGuards] = None,
        buffer: Optional[CodeBuffer] = None,
        labels: Optional[LabelDictionary] = None,
        cse: Optional[CseManager] = None,
        stats: Optional[Dict[str, Any]] = None,
        strategy: Optional[str] = None,
        spill_plan: Tuple[SpillDirective, ...] = (),
    ) -> GeneratedCode:
        """The interpreted coded hot loop (the behavioral reference the
        specialized lane is gated against)."""
        run = _Run(
            self, frame, buffer=buffer, labels=labels, cse=cse, stats=stats,
            strategy=strategy, spill_plan=spill_plan,
        )
        code_get = self._code_get
        # Intake: stamp interned codes once so the hot loop never hashes
        # a symbol string.  Pre-stamped codes must come from this
        # generator's own tables (columns are a per-build assignment);
        # every in-repo producer linearizes against build.tables.
        pending: Deque[IFToken] = deque(
            t if t.code is not None
            else IFToken(t.symbol, t.value, t.sem, code_get(t.symbol, -1))
            for t in tokens
        )
        stack = run.stack
        stack.append((0, "<bottom>", None))
        reductions = 0

        guards = guards if guards is not None else DEFAULT_GUARDS
        budget = guards.step_budget
        if budget is None:
            budget = max(10_000, 64 * (len(pending) + 1))
        chain_limit = guards.chain_limit
        steps = 0
        #: prefixed (synthetic) tokens currently at the head of `pending`;
        #: popping one of those is not input progress.
        synthetic_front = 0
        #: steps since the parse last made real progress (consumed an
        #: original token or reached a new stack-depth minimum).
        chain_steps = 0
        min_depth = len(stack)
        nstates = self.tables.nstates
        plans = self._plans
        nproductions = len(plans)
        end_token = self._end_token
        lookup_coded = self.tables.lookup_coded
        # Dense tables get their matrix indexed inline (two subscripts,
        # no call); the compressed representation goes through its
        # lookup_coded method.
        matrix = (
            self.tables.matrix
            if type(self.tables) is ParseTables else None
        )
        shift_kinds = self._shift_kinds
        alloc = run.alloc
        state = 0

        while True:
            if steps >= budget:
                raise StepBudgetError(
                    f"parse exceeded its step budget of {budget} "
                    f"(state {state}, {len(pending)} tokens "
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
            lookahead = pending[0] if pending else end_token
            col = lookahead.code
            if col < 0:
                action = T.ERROR
            elif matrix is not None:
                action = matrix[state][col]
            else:
                action = lookup_coded(state, col)
            if action >= 2:
                if not action & 1:
                    # SHIFT (even >= 2): covers terminals, operators and
                    # the goto-as-shift of prefixed non-terminals.
                    next_state = (action - 2) >> 1
                    if next_state >= nstates:
                        raise self._annotate(
                            CodeGenError(
                                f"corrupt parse table: shift to state "
                                f"{next_state} of {nstates}"
                            ),
                            run, lookahead,
                        )
                    sem = lookahead.sem
                    if sem is not None:
                        value = sem
                    elif shift_kinds[col]:
                        # Register classes and lambda: validating path.
                        try:
                            value = self._shift_value(lookahead)
                        except CodeGenError as error:
                            raise self._annotate(error, run, lookahead)
                    else:
                        v = lookahead.value
                        value = (
                            AttrValue(lookahead.symbol, v)
                            if v is not None else None
                        )
                    stack.append((next_state, lookahead.symbol, value))
                    state = next_state
                    if pending:
                        pending.popleft()
                        if synthetic_front:
                            synthetic_front -= 1
                            chain_steps += 1
                        else:
                            chain_steps = 0
                            min_depth = len(stack)
                    else:
                        chain_steps += 1
                    continue
                # REDUCE (odd >= 3)
                pid = (action - 3) >> 1
                if pid >= nproductions:
                    raise self._annotate(
                        CodeGenError(
                            f"corrupt parse table: reduce by unknown "
                            f"production {pid} of {nproductions}"
                        ),
                        run, lookahead,
                    )
                plan = plans[pid]
                n = plan.nrhs
                if n >= len(stack):
                    raise self._annotate(
                        CodeGenError(
                            f"corrupt parse table: reduce by production "
                            f"{pid} pops below the stack bottom"
                        ),
                        run, lookahead,
                    )
                if plan.wrapper_token is not None:
                    # Wrapper fast path: no templates, no allocation --
                    # pop the RHS and prefix the (shared, precoded) LHS.
                    if n:
                        del stack[-n:]
                    pending.appendleft(plan.wrapper_token)
                    synthetic_front += 1
                elif (
                    plan.is_chain
                    and stack[-1][2] is not None
                    and type(stack[-1][2]) is not SpilledValue
                ):
                    # Chain fast path: the popped value rides through
                    # under the LHS symbol.  Spilled values and unbound
                    # (None) values take the full path for its reload
                    # and error handling.
                    value = stack[-1][2]
                    del stack[-1:]
                    alloc.global_index += 1  # begin_reduction
                    pending.appendleft(
                        IFToken(plan.lhs_symbol, None, value, plan.lhs_code)
                    )
                    synthetic_front += 1
                else:
                    before = len(pending)
                    try:
                        self._reduce(run, pending, plan)
                    except CodeGenError as error:
                        raise self._annotate(error, run, lookahead)
                    synthetic_front += len(pending) - before
                state = stack[-1][0]
                reductions += 1
                if len(stack) < min_depth:
                    min_depth = len(stack)
                    chain_steps = 0
                else:
                    chain_steps += 1
                continue
            if action == T.ACCEPT:
                if pending:
                    raise self._annotate(
                        CodeGenError(
                            "accepted before the IF stream was exhausted"
                        ),
                        run, lookahead,
                    )
                break
            self._signal_error(run, lookahead)

        if strategy is not None or spill_plan:
            # Spill instrumentation is only surfaced for explicit
            # strategy/plan runs (the repro.opt.spillplan driver); the
            # default lanes keep their stats byte-identical to before.
            run.stats["spill_log"] = run.alloc.spill_log
            run.stats["plan_degraded_reason"] = (
                run.alloc.plan_degraded_reason
            )
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
        self, run: _Run, pending: Deque[IFToken], plan: _ProdPlan
    ) -> None:
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
            # are allocated at one time".  Pins are skipped when nothing
            # in this reduction can allocate (no USING/NEED, no semantic
            # operators, no spilled operand to reload) -- they would
            # never be consulted.
            needs_pins = plan.needs_pins
            if not needs_pins:
                for value in values:
                    if type(value) is SpilledValue:
                        needs_pins = True
                        break
            if needs_pins:
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
            # Run the template sequence.
            for handler, payload in plan.exec_steps:
                if handler is None:
                    payload(ctx)
                elif handler is _MISSING_HANDLER:
                    raise CodeGenError(
                        f"no handler for semantic operator {payload.op!r}"
                    )
                else:
                    handler(ctx, payload)
            # Epilogue (paper 4.1): push back the LHS, release RHS uses.
            prod = ctx.prod
            prefix = ctx.prefix
            lhs_token: Optional[IFToken] = None
            if plan.lambda_token is not None:
                lhs_token = plan.lambda_token
            elif not ctx.ignore_lhs:
                lhs_ref = prod.lhs_ref
                assert lhs_ref is not None
                lhs_value = ctx.bindings.get(plan.lhs_key)
                if lhs_value is None:
                    raise CodeGenError(
                        f"LHS {lhs_ref} unbound at end of {prod}"
                    )
                tv = type(lhs_value)
                if tv is SpilledValue:
                    lhs_value = ctx.reg_binding(lhs_ref, plan.first_tmpl)
                    tv = type(lhs_value)
                if tv is RegValue or tv is PairValue:
                    alloc.acquire(lhs_value)
                lhs_token = IFToken(prod.lhs, None, lhs_value, plan.lhs_code)

            # Consume the RHS operands: "When a register is allocated,
            # its use count is decremented" -- each consumed stack
            # operand gives back one use.
            suppressed = ctx._suppressed
            for value in ctx.values:
                tv = type(value)
                if tv is RegValue or tv is PairValue:
                    if not suppressed or not ctx.is_suppressed(value):
                        alloc.release(value)
            # Scratch registers allocated for this reduction but not
            # pushed give back their allocation use.
            for value in ctx.allocated:
                tv = type(value)
                if tv is RegValue or tv is PairValue:
                    alloc.release(value)

            # Most reductions prefix exactly one LHS token; skip the
            # list-reverse dance for that case.
            if prefix:
                if lhs_token is not None:
                    prefix.append(lhs_token)
                pending.extendleft(reversed(prefix))
            elif lhs_token is not None:
                pending.appendleft(lhs_token)
        finally:
            run.active_ctx = None
            alloc.unpin_all()
