"""Encoding of :class:`~repro.core.codegen.emitter.Instr` to S/370 bytes.

Operand conventions (matching the spec-template surface syntax):

* register fields accept :class:`R` or :class:`Imm` (constants such as
  ``stack_base = 13`` resolve to immediates but denote registers);
* RS shifts take their shift amount as an ``Imm`` or as a ``Mem``
  displacement (``sla r1,2`` == ``sla r1,2(0)``);
* SS instructions carry the length in the *index* slot of their first
  address operand (assembler surface ``D1(L,B1)``), already converted to
  the length-1 encoding by the IBM_LENGTH semantic operator.
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Tuple

from repro.errors import AssemblyError
from repro.core.machine import Encoder
from repro.core.codegen.emitter import Imm, Instr, Mem, Operand, R
from repro.machines.s370.isa import OPCODES, OpInfo


def _reg_field(operand: Operand, instr: Instr) -> int:
    if isinstance(operand, R):
        value = operand.n
    elif isinstance(operand, Imm):
        value = operand.value
    else:
        raise AssemblyError(
            f"{instr.opcode}: {operand} cannot fill a register field"
        )
    if not 0 <= value <= 15:
        raise AssemblyError(
            f"{instr.opcode}: register field value {value} out of range"
        )
    return value


def _mem_fields(operand: Operand, instr: Instr) -> Tuple[int, int, int]:
    """(d, x, b) for an address operand; Imm means bare displacement."""
    if isinstance(operand, Mem):
        d, x, b = operand.disp, operand.index, operand.base
    elif isinstance(operand, Imm):
        d, x, b = operand.value, 0, 0
    else:
        raise AssemblyError(
            f"{instr.opcode}: {operand} cannot fill an address field"
        )
    if not 0 <= d <= 0xFFF:
        raise AssemblyError(
            f"{instr.opcode}: displacement {d} does not fit 12 bits"
        )
    for field in (x, b):
        if not 0 <= field <= 15:
            raise AssemblyError(
                f"{instr.opcode}: address register {field} out of range"
            )
    return d, x, b


def _base_fields(operand: Operand, instr: Instr) -> Tuple[int, int]:
    """(d, b) for an address operand of a format with no index field
    (RS, SI, SS): an index register there is rejected, not dropped, so
    the bytes address what the effects table says they do."""
    d, x, b = _mem_fields(operand, instr)
    if x:
        raise AssemblyError(
            f"{instr.opcode}: {operand} has an index register, which "
            "this format cannot encode"
        )
    return d, b


def _want(instr: Instr, n: int) -> None:
    if len(instr.operands) != n:
        raise AssemblyError(
            f"{instr.opcode}: expected {n} operands, got "
            f"{len(instr.operands)}"
        )


#: Operand counts the per-format encoders below accept, for the static
#: analyzer.  RS covers both the shift form (r1,amount) and the
#: three-operand form; RR is 2 except bctr's decrement-only form.
_FORMAT_ARITY = {
    "RR": (2, 2),
    "RX": (2, 2),
    "RS": (2, 3),
    "SI": (2, 2),
    "SS": (2, 2),
    "SVC": (1, 1),
}

#: Operand positions whose address has an index slot, per format: the
#: RX storage operand, and the SS first operand, which carries its
#: length there.  RS, SI and the SS second operand have none.
_FORMAT_INDEXED = {
    "RX": frozenset({1}),
    "SS": frozenset({0}),
}


class S370Encoder(Encoder):
    """The `Encoder` implementation for System/370."""

    def mnemonics(self) -> Optional[FrozenSet[str]]:
        return frozenset(OPCODES)

    def operand_arity(self, mnemonic: str) -> Optional[Tuple[int, int]]:
        info = OPCODES.get(mnemonic)
        if info is None:
            return None
        if info.mnemonic == "bctr":
            return (1, 2)
        return _FORMAT_ARITY.get(info.format)

    def indexed_operands(self, mnemonic: str) -> Optional[FrozenSet[int]]:
        info = OPCODES.get(mnemonic)
        if info is None:
            return None
        return _FORMAT_INDEXED.get(info.format, frozenset())

    def effects(self, instr: Instr):
        from repro.machines.s370.effects import instr_effects

        return instr_effects(instr)

    def effect_coverage(self) -> Optional[FrozenSet[str]]:
        from repro.machines.s370.effects import COVERED

        return COVERED

    def entry_defined_registers(self) -> FrozenSet[int]:
        from repro.machines.s370.effects import ENTRY_DEFINED

        return ENTRY_DEFINED

    def expression_ops(self) -> FrozenSet[str]:
        from repro.machines.s370.effects import EXPRESSION_OPS

        return EXPRESSION_OPS

    def disjoint_base_pairs(self) -> FrozenSet[FrozenSet[int]]:
        """r10 (pr area), r11 (global area) and r13 (frame stack) are
        runtime-dedicated bases: generated code never redefines r10/r11,
        and r13 always points into the frame area (the entry_code stub
        and the standard epilogue are its only writers).  The three
        areas are disjoint address ranges
        (:mod:`repro.machines.s370.runtime`: ``PR_AREA`` 0x1000,
        ``GLOBAL_AREA`` 0x2000..0x10000, ``FRAME_AREA`` 0x100000+), and
        every displacement fits in 12 bits, so unindexed locations off
        two different dedicated bases can never overlap."""
        from repro.machines.s370.linkage import DISJOINT_BASE_PAIRS

        return DISJOINT_BASE_PAIRS

    def match_linkage(self, entry_items, return_tails):
        from repro.machines.s370.linkage import match_linkage

        return match_linkage(entry_items, return_tails)

    def info(self, instr: Instr) -> OpInfo:
        info = OPCODES.get(instr.opcode)
        if info is None:
            raise AssemblyError(f"unknown S/370 mnemonic {instr.opcode!r}")
        return info

    def size(self, instr: Instr) -> int:
        return self.info(instr).length

    def encode(self, instr: Instr, address: int = 0) -> bytes:
        info = self.info(instr)
        if info.format == "RR":
            return self._rr(info, instr)
        if info.format == "RX":
            return self._rx(info, instr)
        if info.format == "RS":
            return self._rs(info, instr)
        if info.format == "SI":
            return self._si(info, instr)
        if info.format == "SS":
            return self._ss(info, instr)
        if info.format == "SVC":
            return self._svc(info, instr)
        raise AssemblyError(
            f"unhandled format {info.format!r}"
        )  # pragma: no cover - OPCODES only uses known formats

    # ---- per-format encoders --------------------------------------------------

    def _rr(self, info: OpInfo, instr: Instr) -> bytes:
        if info.mnemonic == "bctr" and len(instr.operands) == 1:
            # "bctr r,0": decrement-only form.
            r1 = _reg_field(instr.operands[0], instr)
            return bytes([info.opcode, (r1 << 4)])
        _want(instr, 2)
        r1 = _reg_field(instr.operands[0], instr)
        r2 = _reg_field(instr.operands[1], instr)
        return bytes([info.opcode, (r1 << 4) | r2])

    def _rx(self, info: OpInfo, instr: Instr) -> bytes:
        _want(instr, 2)
        r1 = _reg_field(instr.operands[0], instr)
        d, x, b = _mem_fields(instr.operands[1], instr)
        return bytes(
            [info.opcode, (r1 << 4) | x, (b << 4) | (d >> 8), d & 0xFF]
        )

    def _rs(self, info: OpInfo, instr: Instr) -> bytes:
        if len(instr.operands) == 2:
            # Shift form: r1, shift-amount.
            r1 = _reg_field(instr.operands[0], instr)
            d, b = _base_fields(instr.operands[1], instr)
            return bytes(
                [info.opcode, r1 << 4, (b << 4) | (d >> 8), d & 0xFF]
            )
        _want(instr, 3)
        r1 = _reg_field(instr.operands[0], instr)
        r3 = _reg_field(instr.operands[1], instr)
        d, b = _base_fields(instr.operands[2], instr)
        return bytes(
            [info.opcode, (r1 << 4) | r3, (b << 4) | (d >> 8), d & 0xFF]
        )

    def _si(self, info: OpInfo, instr: Instr) -> bytes:
        _want(instr, 2)
        d, b = _base_fields(instr.operands[0], instr)
        i2 = instr.operands[1]
        if not isinstance(i2, Imm):
            raise AssemblyError(
                f"{instr.opcode}: immediate operand required, got {i2}"
            )
        if not 0 <= i2.value <= 0xFF:
            raise AssemblyError(
                f"{instr.opcode}: immediate {i2.value} does not fit a byte"
            )
        return bytes(
            [info.opcode, i2.value, (b << 4) | (d >> 8), d & 0xFF]
        )

    def _ss(self, info: OpInfo, instr: Instr) -> bytes:
        _want(instr, 2)
        first = instr.operands[0]
        if not isinstance(first, Mem):
            raise AssemblyError(
                f"{instr.opcode}: first operand must be D1(L,B1)"
            )
        length = first.index  # the length rides in the index slot
        if not 0 <= length <= 0xFF:
            raise AssemblyError(
                f"{instr.opcode}: length {length} does not fit a byte"
            )
        d1, b1 = first.disp, first.base
        d2, b2 = _base_fields(instr.operands[1], instr)
        if not 0 <= d1 <= 0xFFF:
            raise AssemblyError(
                f"{instr.opcode}: displacement {d1} does not fit 12 bits"
            )
        return bytes(
            [
                info.opcode,
                length,
                (b1 << 4) | (d1 >> 8),
                d1 & 0xFF,
                (b2 << 4) | (d2 >> 8),
                d2 & 0xFF,
            ]
        )

    def _svc(self, info: OpInfo, instr: Instr) -> bytes:
        _want(instr, 1)
        number = instr.operands[0]
        if not isinstance(number, Imm) or not 0 <= number.value <= 0xFF:
            raise AssemblyError("svc: service number must be a byte")
        return bytes([info.opcode, number.value])
