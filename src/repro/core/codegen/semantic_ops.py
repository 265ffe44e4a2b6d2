"""Runtime handlers for the semantic operators (paper section 4).

Each handler receives the per-reduction
:class:`~repro.core.codegen.parser_rt.EmissionContext` and the
:class:`~repro.core.speclang.ast.TemplateAST` being interpreted.  The
``using``/``need`` operators are *not* here: the emission routine
performs all register allocation up front ("all registers required by
the template sequence are allocated at one time", paper 4.1), so by the
time templates run those bindings already exist.

Targets can override or extend this table through
``MachineDescription.semop_handlers``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict

from repro.errors import CodeGenError
from repro.core.codegen.emitter import Instr, Mem, R
from repro.core.codegen.operand import AttrValue, PairValue, RegValue
from repro.ir.linear import IFToken

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.speclang.ast import TemplateAST
    from repro.core.codegen.parser_rt import EmissionContext

Handler = Callable[["EmissionContext", "TemplateAST"], None]

#: CSE size class -> IF data-reference operator prefixed by FIND_COMMON
#: when the CSE lives in memory (paper 4.4: "the address of the CSE is
#: prefixed to the input stream").
_SIZE_TO_OPERATOR = {"full": "fullword", "half": "halfword", "byte": "byteword"}

#: Default store opcodes for flushing a CSE to its home temporary.
_SIZE_TO_STORE = {"full": "st", "half": "sth", "byte": "stc"}


def _single_ref(ctx: "EmissionContext", tmpl: "TemplateAST"):
    operand = tmpl.operands[0]
    if operand.is_address:
        raise CodeGenError(
            f"{tmpl.op}: operand {operand} must be a plain reference"
        )
    return operand.base


def h_modifies(ctx: "EmissionContext", tmpl: "TemplateAST") -> None:
    """MODIFIES: the register named as a destructive destination.

    Three cases, in order:

    1. The register's value is still live in *other* translation-stack
       entries (a FIND_COMMON copy, for instance): the destination is
       relocated -- the value moves to a fresh register which becomes
       the template's operand, and the original keeps its value (and
       any CSE binding) for the other holders.
    2. The register holds a CSE with outstanding uses (and no live
       stack copies): the value is flushed to its home temporary so
       later FIND_COMMONs answer with the memory address (paper 4.4,
       establishment item 3).
    3. Otherwise: just refresh the LRU stamp.
    """
    operand = tmpl.operands[0]
    if operand.is_address:
        raise CodeGenError(
            f"{tmpl.op}: operand {operand} must be a plain reference"
        )
    ref = operand.base
    value = ctx.reg_binding(ref, tmpl)

    if type(value) is RegValue:
        use_count, cse_id = ctx.alloc.uses(value)
        remaining = (
            ctx.cse.lookup(cse_id).remaining if cse_id is not None else 0
        )
        live_elsewhere = use_count - ctx.values.count(value) - remaining
        if live_elsewhere > 0:
            # Relocate the destination; the old register keeps the value.
            fresh = ctx.alloc.allocate(value.cls)
            assert isinstance(fresh, RegValue)
            move = ctx.machine.move_op.get(value.cls, "lr")
            ctx.emit_instr(
                Instr(
                    move,
                    (R(fresh.reg), R(value.reg)),
                    comment="modifies: value live elsewhere",
                )
            )
            ctx.alloc.pin(fresh)
            ctx.allocated.append(fresh)
            # The epilogue releases the consumed RHS value once (the
            # old register drops to its external holders' count) and the
            # rebound LHS/operands now name the fresh register.
            ctx.rebind(ref, fresh)
            ctx.alloc.mark_modified(fresh)
            return

    for cse_id in ctx.alloc.mark_modified(value):
        record = ctx.cse.lookup(cse_id)
        if record.remaining > 0:
            store = ctx.machine.semop_opcodes.get(
                f"store_{record.size}", _SIZE_TO_STORE[record.size]
            )
            assert record.reg is not None
            ctx.emit_instr(
                Instr(
                    store,
                    (R(record.reg.reg), Mem(record.disp, 0, record.base)),
                    comment=f"flush CSE {cse_id} to home",
                )
            )
            ctx.alloc.release(record.reg, record.remaining)
        ctx.cse.evict(cse_id)


def h_ignore_lhs(ctx: "EmissionContext", tmpl: "TemplateAST") -> None:
    """IGNORE_LHS: "prevents the parser from pushing the LHS of the
    production since this has already been done" (paper 4.3)."""
    ctx.ignore_lhs = True


def _push_half(ctx: "EmissionContext", tmpl: "TemplateAST", keep: str) -> None:
    operand = tmpl.operands[0]
    if operand.is_address:
        raise CodeGenError(
            f"{tmpl.op}: operand {operand} must be a plain reference"
        )
    value = ctx.reg_binding(operand.base, tmpl)
    if not isinstance(value, PairValue):
        raise CodeGenError(
            f"{tmpl.op}: {tmpl.operands[0]} is not an even/odd pair"
        )
    reg = ctx.alloc.split_pair(value, keep)
    ctx.suppress_release(value)
    ctx.forget_allocation(value)
    ctx.prefix_token(IFToken(reg.cls, sem=reg))


def h_push_odd(ctx: "EmissionContext", tmpl: "TemplateAST") -> None:
    """PUSH_ODD: type-convert the odd half to a plain register and prefix
    it to the input stream (paper 4.3's IMULT idiom)."""
    _push_half(ctx, tmpl, "odd")


def h_push_even(ctx: "EmissionContext", tmpl: "TemplateAST") -> None:
    _push_half(ctx, tmpl, "even")


def _load_odd(ctx: "EmissionContext", tmpl: "TemplateAST") -> None:
    """LOAD_ODD_*: emit the mapped load targeting the odd half."""
    opcode = ctx.machine.semop_opcodes.get(tmpl.op)
    if opcode is None:
        raise CodeGenError(
            f"machine {ctx.machine.name!r} maps no opcode for {tmpl.op!r}"
        )
    value = ctx.reg_binding(tmpl.operands[0].base, tmpl)
    if not isinstance(value, PairValue):
        raise CodeGenError(f"{tmpl.op}: first operand must be a pair")
    source = ctx.resolve_operand(tmpl.operands[1], tmpl)
    ctx.emit_instr(Instr(opcode, (R(value.odd), source), comment=tmpl.comment))


def h_label_location(ctx: "EmissionContext", tmpl: "TemplateAST") -> None:
    """LABEL_LOCATION: "record a relative label in the dictionary at the
    location of the current program counter" (paper 4.2)."""
    operand = tmpl.operands[0]
    if operand.is_address:
        raise CodeGenError(
            f"{tmpl.op}: operand {operand} must be a plain reference"
        )
    label = ctx.resolve_int(operand.base, tmpl)
    ctx.labels.define(label)
    ctx.buffer.mark_label(label)


def h_label_pntr(ctx: "EmissionContext", tmpl: "TemplateAST") -> None:
    """LABEL_PNTR: drop a 4-byte address constant for the label."""
    operand = tmpl.operands[0]
    if operand.is_address:
        raise CodeGenError(
            f"{tmpl.op}: operand {operand} must be a plain reference"
        )
    label = ctx.resolve_int(operand.base, tmpl)
    ctx.labels.reference(label)
    ctx.buffer.acon(label)


def h_branch(ctx: "EmissionContext", tmpl: "TemplateAST") -> None:
    """BRANCH: enter a branch site.  The spare register operand "is to be
    used in the event that a long instruction is needed" (paper 4.2)."""
    cond = ctx.resolve_int(tmpl.operands[0].base, tmpl)
    label = ctx.resolve_int(tmpl.operands[1].base, tmpl)
    index_reg = 0
    if len(tmpl.operands) > 2:
        index_reg = ctx.resolve_reg(tmpl.operands[2].base, tmpl)
    ctx.labels.reference(label)
    ctx.buffer.branch(cond, label, index_reg, comment=tmpl.comment)


def h_skip(ctx: "EmissionContext", tmpl: "TemplateAST") -> None:
    """SKIP: short forward branch over the next N halfwords of code."""
    cond = ctx.resolve_int(tmpl.operands[0].base, tmpl)
    halfwords = ctx.resolve_int(tmpl.operands[1].base, tmpl)
    index_reg = ctx.resolve_reg(tmpl.operands[2].base, tmpl)
    ctx.buffer.skip(cond, halfwords, index_reg, comment=tmpl.comment)


def _declare_common(
    ctx: "EmissionContext", tmpl: "TemplateAST", size: str
) -> None:
    cse_id = ctx.resolve_int(tmpl.operands[0].base, tmpl)
    count = ctx.resolve_int(tmpl.operands[1].base, tmpl)
    reg = ctx.reg_binding(tmpl.operands[2].base, tmpl)
    if not isinstance(reg, RegValue):
        raise CodeGenError(f"{tmpl.op}: CSE register must be a single register")
    disp = ctx.resolve_int(tmpl.operands[3].base, tmpl)
    base = 0
    if len(tmpl.operands) > 4:
        base = ctx.resolve_reg(tmpl.operands[4].base, tmpl)
    ctx.cse.declare(cse_id, count, reg, disp, base, size)
    if count > 0:
        ctx.alloc.acquire(reg, count)
        ctx.alloc.bind_cse(reg, cse_id)


def h_full_common(ctx: "EmissionContext", tmpl: "TemplateAST") -> None:
    """COMMON (fullword): establish a CSE (paper 4.4)."""
    _declare_common(ctx, tmpl, "full")


def h_half_common(ctx: "EmissionContext", tmpl: "TemplateAST") -> None:
    _declare_common(ctx, tmpl, "half")


def h_byte_common(ctx: "EmissionContext", tmpl: "TemplateAST") -> None:
    _declare_common(ctx, tmpl, "byte")


def h_find_common(ctx: "EmissionContext", tmpl: "TemplateAST") -> None:
    """FIND_COMMON: "if the CSE still resides in a register, then that
    register value is prefixed to the input stream.  If the CSE resides
    only in memory ... the address of the CSE is prefixed" (paper 4.4)."""
    cse_id = ctx.resolve_int(tmpl.operands[0].base, tmpl)
    record = ctx.cse.find(cse_id)
    if record.in_register:
        assert record.reg is not None
        ctx.prefix_token(IFToken(record.reg.cls, sem=record.reg))
        return
    op = _SIZE_TO_OPERATOR[record.size]
    ctx.prefix_token(IFToken(op))
    ctx.prefix_token(IFToken("dsp", record.disp))
    ctx.prefix_token(IFToken(record.reg_cls, record.base))


def h_ibm_length(ctx: "EmissionContext", tmpl: "TemplateAST") -> None:
    """IBM_LENGTH: SS-format lengths are encoded as length-1."""
    ref = _single_ref(ctx, tmpl)
    value = ctx.binding(ref, tmpl)
    if not isinstance(value, AttrValue):
        raise CodeGenError(f"ibm_length: {ref} is not a shaper attribute")
    if value.value < 1:
        raise CodeGenError(f"ibm_length: length {value.value} out of range")
    ctx.rebind(ref, AttrValue(value.symbol, value.value - 1))


def h_list_request(ctx: "EmissionContext", tmpl: "TemplateAST") -> None:
    """LIST_REQUEST: record the parameter-list length of a call."""
    count = ctx.resolve_int(_single_ref(ctx, tmpl), tmpl)
    ctx.stats.setdefault("list_requests", []).append(count)


def h_stmt_record(ctx: "EmissionContext", tmpl: "TemplateAST") -> None:
    """STMT_RECORD: map source statement numbers to code positions and
    drop a zero-size marker into the code buffer for listings."""
    operand = tmpl.operands[0]
    if operand.is_address:
        raise CodeGenError(
            f"{tmpl.op}: operand {operand} must be a plain reference"
        )
    stmt = ctx.resolve_int(operand.base, tmpl)
    ctx.stats.setdefault("statements", {})[stmt] = (
        ctx.buffer.instruction_count
    )
    ctx.buffer.mark_statement(stmt)


def h_abort(ctx: "EmissionContext", tmpl: "TemplateAST") -> None:
    """ABORT: record a runtime-abort request (targets usually override
    this with a call into their runtime)."""
    code = 0
    if tmpl.operands:
        code = ctx.resolve_int(tmpl.operands[0].base, tmpl)
    ctx.stats.setdefault("aborts", []).append(code)


def _unsupported(name: str) -> Handler:
    def handler(ctx: "EmissionContext", tmpl: "TemplateAST") -> None:
        raise CodeGenError(
            f"semantic operator {name!r} needs a target-specific handler "
            f"(register one via MachineDescription.semop_handlers)"
        )

    return handler


STANDARD_HANDLERS: Dict[str, Handler] = {
    "modifies": h_modifies,
    "ignore_lhs": h_ignore_lhs,
    "push_odd": h_push_odd,
    "push_even": h_push_even,
    "load_odd_addr": _load_odd,
    "load_odd_full": _load_odd,
    "load_odd_half": _load_odd,
    "load_odd_reg": _load_odd,
    "label_location": h_label_location,
    "label_pntr": h_label_pntr,
    "branch": h_branch,
    "skip": h_skip,
    "full_common": h_full_common,
    "half_common": h_half_common,
    "byte_common": h_byte_common,
    "find_common": h_find_common,
    "ibm_length": h_ibm_length,
    "list_request": h_list_request,
    "stmt_record": h_stmt_record,
    "abort": h_abort,
    "branch_indexed": _unsupported("branch_indexed"),
    "case_load": _unsupported("case_load"),
}
