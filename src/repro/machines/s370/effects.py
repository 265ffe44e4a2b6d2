"""Per-mnemonic def/use effect table for System/370.

This is the S/370 instantiation of the machine-neutral
:class:`~repro.core.effects.InstrEffects` contract consumed by the CFG
builder and the iterative dataflow solvers (:mod:`repro.opt.cfg`,
:mod:`repro.opt.dataflow`).  The -O1 peephole's home-location map
(:mod:`repro.opt.peephole`) reads the same records through the CFG
layer's memo, so local and global analyses can never disagree about
what an instruction touches.

Every mnemonic in :data:`repro.machines.s370.isa.OPCODES` is covered
(``tests/test_cfg_dataflow.py`` asserts it): instructions the analyses
cannot usefully model (``ex``, ``mvcl``, ``clcl``) are *deliberate*
barriers, which is still an entry -- a mnemonic missing entirely would
be an SL053 coverage gap.

Beyond plain register and storage def/use, the table records:

* ``stm``/``lm`` wrap-around register-range effects (marked
  ``save_restore`` so the SL050 use-before-def check skips the
  callee-save traffic of routine prologues);
* a ``flow`` classification for control transfers (``bcr 15,x`` is an
  indirect jump, ``bal``/``balr``/``svc`` are calls, ``svc 0``/``svc 9``
  halt) so the CFG builder knows where blocks end;
* whether ``bc``/``bcr``/``bct``/``bctr`` read the CC;
* which half of the pair a constant double shift by 32..63 reads.
"""

from __future__ import annotations

from typing import FrozenSet, Optional

from repro.core.effects import (
    BARRIER_EFFECTS,
    FLOW_CALL,
    FLOW_CJUMP,
    FLOW_HALT,
    FLOW_JUMP,
    InstrEffects,
    Loc,
)
from repro.core.codegen.emitter import Imm, Instr, Mem, R
from repro.machines.s370 import isa
from repro.machines.s370.isa import OPCODES

_RR_ARITH = frozenset({"ar", "sr", "nr", "or", "xr", "alr", "slr"})
_RR_MOVE_CC = frozenset({"ltr", "lcr", "lpr", "lnr"})
_RR_CMP = frozenset({"cr", "clr"})
_RX_LOAD = {"l": 4, "lh": 2}
_RX_STORE = {"st": 4, "sth": 2, "stc": 1}
_RX_ARITH = {"a": 4, "s": 4, "n": 4, "o": 4, "x": 4, "ah": 2, "sh": 2}
_RX_CMP = {"c": 4, "ch": 2, "cl": 4}
_SHIFT_SINGLE = frozenset({"sla", "sra", "sll", "srl"})
_SHIFT_DOUBLE = frozenset({"slda", "srda", "sldl", "srdl"})

#: Instructions with an implicit even/odd sibling: renaming an operand
#: silently changes which sibling participates, so rename spans refuse
#: to touch them.
PAIR_OPS = frozenset(
    {"mr", "dr", "m", "d", "slda", "srda", "sldl", "srdl", "mvcl", "clcl"}
)

#: Instructions the table deliberately models as full barriers: execute
#: rewrites its target, and the long-move/compare forms carry dynamic
#: lengths in register pairs.
DELIBERATE_BARRIERS = frozenset({"ex", "mvcl", "clcl"})

#: Registers with defined values when the simulator enters a module (or
#: a caller BALs into a routine): the runtime bases, link registers and
#: the result/scratch registers of :mod:`repro.machines.s370.runtime`.
ENTRY_DEFINED = frozenset({0, 1, 10, 11, 12, 13, 14, 15})

#: Exact effect contracts for ``BAL r14,off(,r10)`` calls into the
#: runtime support area (:mod:`repro.machines.s370.runtime`).  These are
#: the only BAL targets generated code ever uses besides real routine
#: calls (which are symbolic ``BranchSite`` items, not ``bal`` Instrs),
#: and their bodies are fixed five-instruction stubs, so modelling them
#: as barriers throws away every fact in every routine prologue.  Keyed
#: by the stub offset; built lazily to avoid an import cycle with
#: :mod:`repro.machines.s370.runtime`.
_RUNTIME_STUBS: dict = {}


def _runtime_stub_effects(disp: int) -> Optional[InstrEffects]:
    if not _RUNTIME_STUBS:
        from repro.machines.s370 import runtime as rt

        # entry_code: L r1,next_frame(,r10); ST r13,old_base(,r1);
        # LR r13,r1; A r1,frame_size(,r10); ST r1,next_frame(,r10);
        # BCR 15,r14.  The old_base store lands in the *new* frame
        # (caller-invisible fresh memory), so it is a may-write in
        # frame coordinates; next_frame is an exact pr-area must-write.
        _RUNTIME_STUBS[rt.OFF_ENTRY_CODE] = InstrEffects(
            uses=frozenset({rt.R_PR_BASE, rt.R_STACK_BASE}),
            defs=frozenset({1, rt.R_STACK_BASE, rt.R_LINK}),
            reads=(
                (rt.R_PR_BASE, 0, rt.OFF_NEXT_FRAME, 4),
                (rt.R_PR_BASE, 0, rt.OFF_FRAME_SIZE, 4),
            ),
            writes=((rt.R_PR_BASE, 0, rt.OFF_NEXT_FRAME, 4),),
            may_writes=((rt.R_STACK_BASE, 0, rt.OFF_OLD_BASE, 4),),
            sets_cc=True,
            flow=FLOW_CALL,
        )
        # underflow/overflow: BCR cond,r14 back on an in-range CC, else
        # an abnormal-termination SVC that keeps everything observable.
        # Modelled as reading all registers and all memory (nothing may
        # be optimized away across the trap path) while writing nothing.
        check = InstrEffects(
            uses=frozenset(range(16)),
            defs=frozenset({rt.R_LINK}),
            reads=(None,),
            reads_cc=True,
            flow=FLOW_CALL,
        )
        _RUNTIME_STUBS[rt.OFF_UNDERFLOW] = check
        _RUNTIME_STUBS[rt.OFF_OVERFLOW] = check
    return _RUNTIME_STUBS.get(disp)


#: Candidates for the available-expressions analysis (-O3 global CSE):
#: loads and address arithmetic whose result depends only on the named
#: operands, cannot trap and sets no condition code.  RX arithmetic is
#: excluded: it reads its own destination, so the "expression" would be
#: destination-dependent.
EXPRESSION_OPS = frozenset({"l", "lh", "la"})


def _reg_of(operand) -> Optional[int]:
    """The register number an R (or register-denoting Imm) names."""
    if isinstance(operand, R):
        return operand.n
    if isinstance(operand, Imm):
        return operand.value
    return None


def _addr_regs(operand) -> FrozenSet[int]:
    if isinstance(operand, Mem):
        return frozenset(n for n in (operand.base, operand.index) if n)
    return frozenset()


def _loc_of(operand, width: Optional[int]) -> Loc:
    if isinstance(operand, Mem):
        return (operand.base, operand.index, operand.disp, width)
    if isinstance(operand, Imm):
        return (0, 0, operand.value, width)
    return None


def _rr(ops, n):
    """Register numbers of the first n operands (None on shape mismatch)."""
    if len(ops) < n:
        return None
    regs = tuple(_reg_of(o) for o in ops[:n])
    return None if any(r is None for r in regs) else regs


def _range_regs(first: int, last: int) -> FrozenSet[int]:
    """The wrap-around register range of STM/LM (r14..r12 wraps at 15)."""
    regs = set()
    r = first
    while True:
        regs.add(r)
        if r == last:
            return frozenset(regs)
        r = (r + 1) % 16


def _multi_move(instr: Instr, is_store: bool) -> InstrEffects:
    """STM (store multiple) / LM (load multiple)."""
    if len(instr.operands) != 3:
        return BARRIER_EFFECTS
    regs = _rr(instr.operands, 2)
    if regs is None:
        return BARRIER_EFFECTS
    span = _range_regs(regs[0], regs[1])
    addr = _addr_regs(instr.operands[2])
    loc = _loc_of(instr.operands[2], 4 * len(span))
    if is_store:
        return InstrEffects(
            uses=span | addr, writes=(loc,), save_restore=True
        )
    return InstrEffects(
        uses=addr, defs=span, reads=(loc,), save_restore=True
    )


def _shift_inputs(op: str, r1: int, amount, regs) -> FrozenSet[int]:
    """The registers a shift's result depends on.  The amount is the low
    six bits of its address; a constant double shift by 32..63 moves one
    register of the pair wholly out, so only the other one is read:
    the even one for ``srda``/``srdl``, the odd one for ``slda``/``sldl``
    (the simulator's ``slda`` keeps no sign bit and has no overflow)."""
    if op not in _SHIFT_DOUBLE or _addr_regs(amount) \
            or not isinstance(amount, (Mem, Imm)):
        return regs
    disp = amount.disp if isinstance(amount, Mem) else amount.value
    if disp & 63 < 32:
        return regs
    return frozenset({r1} if op.startswith("sr") else {r1 + 1})


def _branch_flow(mask: Optional[int]) -> str:
    if mask == 15:
        return FLOW_JUMP
    if mask == 0:
        return ""  # branch never: a nop
    return FLOW_CJUMP


def instr_effects(instr: Instr) -> Optional[InstrEffects]:
    """Effects for one symbolic instruction; ``None`` when the mnemonic
    is outside :data:`OPCODES` (the framework then assumes a barrier)."""
    op = instr.opcode
    ops = instr.operands
    if op not in OPCODES:
        return None
    if op in DELIBERATE_BARRIERS:
        return BARRIER_EFFECTS
    # ---- control transfers ------------------------------------------------
    if op == "bc":
        if len(ops) != 2:
            return BARRIER_EFFECTS
        mask = _reg_of(ops[0])
        flow = _branch_flow(mask)
        return InstrEffects(
            uses=_addr_regs(ops[1]),
            reads_cc=mask not in (0, 15),
            barrier=True,
            flow=flow,
        )
    if op == "bcr":
        regs = _rr(ops, 2)
        if regs is None:
            return BARRIER_EFFECTS
        mask, target = regs
        if target == 0:
            return InstrEffects()  # bcr m,0: a no-op
        return InstrEffects(
            uses=frozenset({target}),
            reads_cc=mask not in (0, 15),
            flow=_branch_flow(mask),
        )
    if op in ("bal", "balr"):
        regs = _rr(ops, 1)
        link = regs[0] if regs is not None else None
        if (
            op == "bal"
            and link is not None
            and len(ops) == 2
            and isinstance(ops[1], Mem)
            and ops[1].index == 0
        ):
            from repro.machines.s370.runtime import R_LINK, R_PR_BASE

            if link == R_LINK and ops[1].base == R_PR_BASE:
                stub = _runtime_stub_effects(ops[1].disp)
                if stub is not None:
                    return stub
        defs = frozenset({link}) if link is not None else frozenset()
        return InstrEffects(defs=defs, barrier=True, flow=FLOW_CALL)
    if op == "bct":
        if len(ops) != 2:
            return BARRIER_EFFECTS
        r1 = _reg_of(ops[0])
        if r1 is None:
            return BARRIER_EFFECTS
        return InstrEffects(
            uses=frozenset({r1}) | _addr_regs(ops[1]),
            defs=frozenset({r1}),
            flow=FLOW_CJUMP,
        )
    if op == "bctr":
        regs = _rr(ops, 2)
        if regs is not None and regs[1] == 0:  # decrement-only form
            return InstrEffects(
                uses=frozenset({regs[0]}), defs=frozenset({regs[0]})
            )
        if regs is None:
            return BARRIER_EFFECTS
        return InstrEffects(
            uses=frozenset(regs), defs=frozenset({regs[0]}), flow=FLOW_CJUMP
        )
    if op == "svc":
        number = _reg_of(ops[0]) if len(ops) == 1 else None
        if number == isa.SVC_HALT:
            # A clean stop reads nothing: registers, the CC and memory
            # are all dead after it (lets analyses clean up trailing
            # stores on the normal-exit path).
            return InstrEffects(flow=FLOW_HALT)
        if number in (isa.SVC_ABORT, isa.SVC_CHECK_LOW,
                      isa.SVC_CHECK_HIGH):
            # Abnormal termination: keep everything observable intact.
            return InstrEffects(barrier=True, flow=FLOW_HALT)
        # The I/O services have exact register contracts (the simulator
        # implements them); the output stream / input cursor they touch
        # is modelled as a write to an unknown location so no pass ever
        # treats them as removable or reorders stores around them.
        if number in (isa.SVC_WRITE_INT, isa.SVC_WRITE_CHAR,
                      isa.SVC_WRITE_BOOL):
            return InstrEffects(uses=frozenset({1}), writes=(None,))
        if number == isa.SVC_WRITE_NL:
            return InstrEffects(writes=(None,))
        if number == isa.SVC_WRITE_STR:
            return InstrEffects(
                uses=frozenset({1, 2}), reads=(None,), writes=(None,)
            )
        if number == isa.SVC_READ_INT:
            return InstrEffects(defs=frozenset({1}), writes=(None,))
        return InstrEffects(barrier=True, flow=FLOW_CALL)
    if op == "stm":
        return _multi_move(instr, is_store=True)
    if op == "lm":
        return _multi_move(instr, is_store=False)
    # ---- RR formats -------------------------------------------------------
    if op in _RR_ARITH or op in _RR_MOVE_CC or op in ("lr", "mr", "dr") \
            or op in _RR_CMP:
        regs = _rr(ops, 2)
        if regs is None:
            return BARRIER_EFFECTS
        r1, r2 = regs
        if op in _RR_CMP:
            return InstrEffects(
                uses=frozenset({r1, r2}), sets_cc=True, cc_only=True
            )
        if op == "lr":
            return InstrEffects(uses=frozenset({r2}), defs=frozenset({r1}))
        if op in _RR_MOVE_CC:
            return InstrEffects(
                uses=frozenset({r2}), defs=frozenset({r1}), sets_cc=True
            )
        if op in ("mr", "dr"):
            # Multiply reads only the odd half (the even register is
            # pure result space); divide reads the full even/odd
            # dividend.
            dividend = frozenset({r1, r1 + 1}) if op == "dr" \
                else frozenset({r1 + 1})
            return InstrEffects(
                uses=dividend | frozenset({r2}),
                defs=frozenset({r1, r1 + 1}),
                pair=True,
            )
        if op in ("sr", "xr", "slr") and r1 == r2:
            # Zero idiom: the result (and the CC) is 0 whatever the
            # register held, so this is a definition, not a use --
            # exactly like the caller-provided values behind an STM.
            return InstrEffects(defs=frozenset({r1}), sets_cc=True)
        return InstrEffects(  # RR arithmetic
            uses=frozenset({r1, r2}), defs=frozenset({r1}), sets_cc=True
        )
    # ---- shifts -----------------------------------------------------------
    if op in _SHIFT_SINGLE or op in _SHIFT_DOUBLE:
        if len(ops) != 2:
            return BARRIER_EFFECTS
        r1 = _reg_of(ops[0])
        if r1 is None:
            return BARRIER_EFFECTS
        amount_regs = _addr_regs(ops[1])
        regs = frozenset({r1, r1 + 1}) if op in _SHIFT_DOUBLE \
            else frozenset({r1})
        return InstrEffects(
            uses=_shift_inputs(op, r1, ops[1], regs) | amount_regs,
            defs=regs,
            sets_cc=op in ("sla", "sra", "slda", "srda"),
            pair=op in _SHIFT_DOUBLE,
        )
    # ---- RX formats: register + storage operand ---------------------------
    if op in ("l", "lh", "la", "ic", "st", "sth", "stc", "a", "s", "n",
              "o", "x", "ah", "sh", "mh", "c", "ch", "cl", "m", "d"):
        if len(ops) != 2:
            return BARRIER_EFFECTS
        r1 = _reg_of(ops[0])
        if r1 is None:
            return BARRIER_EFFECTS
        addr = _addr_regs(ops[1])
        if op == "la":
            return InstrEffects(uses=addr, defs=frozenset({r1}))
        if op in _RX_LOAD:
            return InstrEffects(
                uses=addr,
                defs=frozenset({r1}),
                reads=(_loc_of(ops[1], _RX_LOAD[op]),),
            )
        if op == "ic":
            return InstrEffects(
                uses=addr | frozenset({r1}),
                defs=frozenset({r1}),
                reads=(_loc_of(ops[1], 1),),
            )
        if op in _RX_STORE:
            return InstrEffects(
                uses=addr | frozenset({r1}),
                writes=(_loc_of(ops[1], _RX_STORE[op]),),
            )
        if op in _RX_ARITH:
            return InstrEffects(
                uses=addr | frozenset({r1}),
                defs=frozenset({r1}),
                reads=(_loc_of(ops[1], _RX_ARITH[op]),),
                sets_cc=True,
            )
        if op == "mh":
            return InstrEffects(
                uses=addr | frozenset({r1}),
                defs=frozenset({r1}),
                reads=(_loc_of(ops[1], 2),),
            )
        if op in _RX_CMP:
            return InstrEffects(
                uses=addr | frozenset({r1}),
                reads=(_loc_of(ops[1], _RX_CMP[op]),),
                sets_cc=True,
                cc_only=True,
            )
        # m / d: even/odd pair with a storage operand.  Multiply reads
        # only the odd half; divide the full even/odd dividend.
        dividend = frozenset({r1, r1 + 1}) if op == "d" \
            else frozenset({r1 + 1})
        return InstrEffects(
            uses=addr | dividend,
            defs=frozenset({r1, r1 + 1}),
            reads=(_loc_of(ops[1], 4),),
            pair=True,
        )
    # ---- SI formats: storage + immediate ----------------------------------
    if op in ("mvi", "ni", "oi", "xi", "tm", "cli"):
        if len(ops) != 2:
            return BARRIER_EFFECTS
        addr = _addr_regs(ops[0])
        loc = _loc_of(ops[0], 1)
        if op == "mvi":
            return InstrEffects(uses=addr, writes=(loc,))
        if op in ("tm", "cli"):
            return InstrEffects(
                uses=addr, reads=(loc,), sets_cc=True, cc_only=True
            )
        return InstrEffects(  # ni/oi/xi
            uses=addr, reads=(loc,), writes=(loc,), sets_cc=True
        )
    # ---- SS formats: the length rides in the first operand's index slot ---
    if op in ("mvc", "clc", "nc", "oc", "xc"):
        if len(ops) != 2 or not isinstance(ops[0], Mem):
            return BARRIER_EFFECTS
        width = ops[0].index + 1
        dst = (ops[0].base, 0, ops[0].disp, width)
        src = _loc_of(ops[1], width)
        src_regs = _addr_regs(ops[1])
        base = frozenset({ops[0].base}) if ops[0].base else frozenset()
        if op == "mvc":
            return InstrEffects(
                uses=base | src_regs, reads=(src,), writes=(dst,)
            )
        if op == "clc":
            return InstrEffects(
                uses=base | src_regs, reads=(dst, src),
                sets_cc=True, cc_only=True,
            )
        return InstrEffects(  # nc/oc/xc
            uses=base | src_regs, reads=(dst, src), writes=(dst,),
            sets_cc=True,
        )
    return BARRIER_EFFECTS  # pragma: no cover - every OPCODES entry handled


#: Mnemonics :func:`instr_effects` understands (= the whole ISA).
COVERED: FrozenSet[str] = frozenset(OPCODES)


def renamed_operands(instr: Instr, old: int, new: int) -> tuple:
    """``instr``'s operands with every register and address-field use of
    ``old`` rewritten to ``new``.  An SS first operand's index slot holds
    its length and is left alone; register-denoting :class:`Imm` fields
    (constants such as ``stack_base``) are not renamed either, so a
    renaming pass compares the effects before and after."""
    length_slot = OPCODES[instr.opcode].format == "SS"
    rewritten = []
    for pos, operand in enumerate(instr.operands):
        if isinstance(operand, R) and operand.n == old:
            operand = R(new)
        elif isinstance(operand, Mem):
            index = operand.index
            if index == old and not (length_slot and pos == 0):
                index = new
            base = new if operand.base == old else operand.base
            operand = Mem(operand.disp, index, base)
        rewritten.append(operand)
    return tuple(rewritten)
