"""Unit tests: S/370 instruction encoding (known byte patterns)."""

import pytest

from repro.errors import AssemblyError
from repro.core.codegen.emitter import Imm, Instr, Mem, R
from repro.machines.s370.encode import S370Encoder
from repro.machines.s370.isa import OPCODES, instruction_length

ENC = S370Encoder()


def enc(opcode, *operands):
    return ENC.encode(Instr(opcode, tuple(operands)))


class TestRR:
    def test_lr(self):
        assert enc("lr", R(1), R(2)) == bytes([0x18, 0x12])

    def test_ar(self):
        assert enc("ar", R(7), R(9)) == bytes([0x1A, 0x79])

    def test_bcr_mask(self):
        assert enc("bcr", Imm(15), R(14)) == bytes([0x07, 0xFE])

    def test_bctr_decrement_only(self):
        assert enc("bctr", R(3), Imm(0)) == bytes([0x06, 0x30])
        assert enc("bctr", R(3)) == bytes([0x06, 0x30])

    def test_constant_fills_register_field(self):
        # 'stack_base = 13' resolves to Imm(13) but denotes a register.
        assert enc("lr", Imm(13), R(1)) == bytes([0x18, 0xD1])

    def test_register_out_of_range(self):
        with pytest.raises(AssemblyError):
            enc("lr", R(16), R(0))


class TestRX:
    def test_l(self):
        assert enc("l", R(5), Mem(0x54, 0, 13)) == bytes(
            [0x58, 0x50, 0xD0, 0x54]
        )

    def test_indexed_load(self):
        # l r5,850(r4,r12) like Appendix 1
        assert enc("l", R(5), Mem(850, 4, 12)) == bytes(
            [0x58, 0x54, 0xC3, 0x52]
        )

    def test_bc(self):
        assert enc("bc", Imm(8), Mem(0x123, 0, 12)) == bytes(
            [0x47, 0x80, 0xC1, 0x23]
        )

    def test_la_immediate(self):
        assert enc("la", R(1), Imm(7)) == bytes([0x41, 0x10, 0x00, 0x07])

    def test_displacement_overflow(self):
        with pytest.raises(AssemblyError):
            enc("l", R(1), Mem(4096, 0, 13))

    def test_negative_displacement_rejected(self):
        with pytest.raises(AssemblyError):
            enc("l", R(1), Mem(-4, 0, 13))


class TestRS:
    def test_sla_immediate(self):
        assert enc("sla", R(1), Imm(2)) == bytes([0x8B, 0x10, 0x00, 0x02])

    def test_srda_32(self):
        assert enc("srda", R(4), Imm(32)) == bytes([0x8E, 0x40, 0x00, 0x20])

    def test_shift_by_register(self):
        assert enc("sll", R(2), Mem(0, 0, 5)) == bytes(
            [0x89, 0x20, 0x50, 0x00]
        )

    def test_stm(self):
        assert enc("stm", R(14), R(12), Mem(8, 0, 13)) == bytes(
            [0x90, 0xEC, 0xD0, 0x08]
        )

    def test_lm(self):
        assert enc("lm", R(2), R(12), Mem(24, 0, 13)) == bytes(
            [0x98, 0x2C, 0xD0, 0x18]
        )

    @pytest.mark.parametrize("operands", [
        (R(2), Mem(0, 3, 5)),
        (R(14), R(12), Mem(8, 3, 13)),
    ])
    def test_index_register_rejected(self, operands):
        op = "sll" if len(operands) == 2 else "stm"
        with pytest.raises(AssemblyError, match="index register"):
            enc(op, *operands)


class TestSI:
    def test_mvi(self):
        assert enc("mvi", Mem(0x50, 0, 13), Imm(1)) == bytes(
            [0x92, 0x01, 0xD0, 0x50]
        )

    def test_tm(self):
        assert enc("tm", Mem(0x50, 0, 13), Imm(1)) == bytes(
            [0x91, 0x01, 0xD0, 0x50]
        )

    def test_immediate_byte_range(self):
        with pytest.raises(AssemblyError):
            enc("mvi", Mem(0, 0, 13), Imm(256))

    def test_non_immediate_rejected(self):
        with pytest.raises(AssemblyError):
            enc("mvi", Mem(0, 0, 13), R(1))

    def test_index_register_rejected(self):
        # SI has no index field: the effects table would count r3 in
        # the address the bytes never use.
        with pytest.raises(AssemblyError, match="index register"):
            enc("mvi", Mem(0x50, 3, 13), Imm(1))


class TestSS:
    def test_mvc_length_in_index_slot(self):
        # mvc 0(12,r1),0(r2): encoded length byte is 11 (length-1
        # conversion happens earlier, in the IBM_LENGTH semop).
        data = enc("mvc", Mem(0, 11, 1), Mem(0, 0, 2))
        assert data == bytes([0xD2, 0x0B, 0x10, 0x00, 0x20, 0x00])

    def test_first_operand_must_be_memory(self):
        with pytest.raises(AssemblyError):
            enc("mvc", R(1), Mem(0, 0, 2))

    def test_second_operand_index_rejected(self):
        with pytest.raises(AssemblyError, match="index register"):
            enc("mvc", Mem(0, 11, 1), Mem(0, 3, 2))


class TestSVC:
    def test_svc(self):
        assert enc("svc", Imm(1)) == bytes([0x0A, 0x01])

    def test_svc_range(self):
        with pytest.raises(AssemblyError):
            enc("svc", Imm(300))


class TestMeta:
    def test_unknown_mnemonic(self):
        with pytest.raises(AssemblyError):
            enc("frobnicate", R(1))

    def test_sizes_match_formats(self):
        for name, info in OPCODES.items():
            assert ENC.size(Instr(name, ())) == info.length

    def test_instruction_length_coding(self):
        assert instruction_length(0x18) == 2   # RR
        assert instruction_length(0x58) == 4   # RX
        assert instruction_length(0x90) == 4   # RS
        assert instruction_length(0xD2) == 6   # SS

    def test_length_coding_matches_table(self):
        for info in OPCODES.values():
            assert instruction_length(info.opcode) == info.length

    def test_operand_count_checked(self):
        with pytest.raises(AssemblyError):
            enc("lr", R(1))
        with pytest.raises(AssemblyError):
            enc("l", R(1))
