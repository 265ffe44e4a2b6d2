"""A System/370 subset simulator.

This stands in for the paper's Amdahl 470 (see DESIGN.md,
"Substitutions"): it executes the object code the generated code
generator emits, so correctness claims are checked by *running* the
code, not by eyeballing listings.  The subset covers every instruction
the shipped SDTS, the baseline code generator and the runtime stubs can
emit; condition-code semantics follow the Principles of Operation.

I/O is provided by SVC services (a stand-in for the MTS/OS supervisor):
integers, characters, booleans, strings and newlines are appended to
``SimResult.output``.  Character data is ASCII, not EBCDIC -- a
documented substitution that changes no control flow.
"""

from __future__ import annotations

import functools
import struct
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.errors import (
    AlignmentFaultError,
    InvalidOpcodeError,
    MemoryFaultError,
    RegisterPairFaultError,
    SimulatorError,
    StepLimitError,
)
from repro.machines.s370 import isa, runtime


def to_u32(value: int) -> int:
    return value & 0xFFFFFFFF


def to_s32(value: int) -> int:
    value &= 0xFFFFFFFF
    return value - 0x100000000 if value & 0x80000000 else value


def to_u64(value: int) -> int:
    return value & 0xFFFFFFFFFFFFFFFF


def to_s64(value: int) -> int:
    value &= 0xFFFFFFFFFFFFFFFF
    return value - (1 << 64) if value & (1 << 63) else value


@dataclass
class SimResult:
    """Outcome of one simulated run."""

    output: str = ""
    steps: int = 0
    halted: bool = False
    trap: Optional[str] = None
    instruction_counts: Dict[str, int] = field(default_factory=dict)


class Simulator:
    """Registers, memory, condition code and the fetch/execute loop.

    Execution has two tiers.  Cold code runs on :meth:`step`, which
    decodes every instruction it executes.  A block leader entered for
    the :data:`COMPILE_THRESHOLD`-th time is compiled into one Python
    function (see "the block compiler" below) that runs the whole
    basic block with the registers and condition code in locals.  A
    compiled block never raises: before any instruction that could
    trap, fault or store into compiled code, it writes its state back
    and returns, and :meth:`step` executes that instruction -- so every
    trap comes from the reference code, with the reference PSW.  A store
    into a 16-byte line that holds compiled code drops exactly the
    blocks it overlaps, so self-modifying code stays correct.

    ``predecode=False`` runs :meth:`step` alone and never compiles
    anything.  It is the reference semantics the blocks are tested
    against by ``tests/test_simulator_predecode.py`` -- and is not a
    user-facing option.
    Both produce identical :class:`SimResult` values (output, step
    count, instruction counts), registers, condition code and traps.
    Registers always hold unsigned 32-bit values.
    """

    def __init__(
        self,
        memory_size: int = runtime.MEMORY_SIZE,
        input_values: Optional[List[int]] = None,
        strict_alignment: bool = False,
        predecode: bool = True,
    ):
        #: raise :class:`AlignmentFaultError` on misaligned fullword/
        #: halfword access (S/360-style integral boundaries).  Off by
        #: default: the S/370 tolerates misalignment, and so do we.
        self.strict_alignment = strict_alignment
        #: compile hot blocks; ``False`` runs only the reference loop.
        self.predecode = predecode
        self.memory = bytearray(memory_size)
        self.regs = [0] * 16
        self.cc = 0
        self.pc = 0
        self._halted = False
        self._trap: Optional[str] = None
        self._output: List[str] = []
        self._counts: Counter = Counter()
        #: integers handed out by SVC_READ_INT, in order.
        self.input_values: List[int] = list(input_values or [])
        self._input_pos = 0
        # Compiled blocks by leader pc.  ``_code_lines`` maps each
        # 16-byte line (address >> 4) holding compiled code to the
        # leaders of the blocks on it; compiled stores bail when they
        # hit one.  ``_entries`` counts how often each uncompiled leader
        # was entered.
        self._blocks: Dict[int, _Block] = {}
        self._code_lines: Dict[int, Set[int]] = {}
        self._entries: Dict[int, int] = {}

    @property
    def compiled_blocks(self) -> Dict[int, int]:
        """Leader pc -> end address of every live compiled block."""
        return {pc: block.end for pc, block in self._blocks.items()}

    # ---- fault context ------------------------------------------------------------

    def psw(self) -> dict:
        """Program-status snapshot attached to every typed trap."""
        return {"pc": self.pc, "cc": self.cc, "regs": tuple(self.regs)}

    def _fault(self, exc, message: str) -> SimulatorError:
        """Build a typed trap carrying the current PSW/register context."""
        return exc(message, psw=self.psw())

    # ---- memory access -----------------------------------------------------------

    def _check(self, address: int, length: int) -> None:
        if address < 0 or address + length > len(self.memory):
            raise self._fault(
                MemoryFaultError,
                f"address {address:#x}+{length} outside memory",
            )

    def _check_aligned(self, address: int, length: int) -> None:
        if self.strict_alignment and address % length:
            raise self._fault(
                AlignmentFaultError,
                f"address {address:#x} is not on a {length}-byte boundary",
            )

    def read_word(self, address: int) -> int:
        self._check(address, 4)
        self._check_aligned(address, 4)
        return int.from_bytes(self.memory[address : address + 4], "big")

    def write_word(self, address: int, value: int) -> None:
        self._check(address, 4)
        self._check_aligned(address, 4)
        if self._code_lines:
            self._drop_blocks(address, 4)
        self.memory[address : address + 4] = to_u32(value).to_bytes(4, "big")

    def read_half(self, address: int) -> int:
        self._check(address, 2)
        self._check_aligned(address, 2)
        value = int.from_bytes(self.memory[address : address + 2], "big")
        return value - 0x10000 if value & 0x8000 else value

    def write_half(self, address: int, value: int) -> None:
        self._check(address, 2)
        self._check_aligned(address, 2)
        if self._code_lines:
            self._drop_blocks(address, 2)
        self.memory[address : address + 2] = (value & 0xFFFF).to_bytes(2, "big")

    def read_byte(self, address: int) -> int:
        self._check(address, 1)
        return self.memory[address]

    def write_byte(self, address: int, value: int) -> None:
        self._check(address, 1)
        if self._code_lines:
            self._drop_blocks(address, 1)
        self.memory[address] = value & 0xFF

    # ---- program loading ---------------------------------------------------------

    def load_image(self, image: runtime.ExecutableImage) -> None:
        """Install the runtime area, program image and initial registers."""
        # A fresh image makes every compiled block stale; drop them
        # before the relocation writes below touch the text region.
        self._blocks.clear()
        self._code_lines.clear()
        self._entries.clear()
        area = runtime.build_runtime_area()
        self.memory[runtime.PR_AREA : runtime.PR_AREA + len(area)] = area
        base = runtime.MODULE_BASE
        if base + len(image.code) > len(self.memory):
            raise self._fault(
                MemoryFaultError,
                f"program image ({len(image.code)} bytes) does not fit "
                f"in memory",
            )
        self.memory[base : base + len(image.code)] = image.code
        for offset in image.relocations:
            self.write_word(base + offset, self.read_word(base + offset) + base)
        if image.data:
            if len(image.data) > runtime.GLOBAL_AREA_SIZE:
                raise SimulatorError("global data image too large")
            self.memory[
                runtime.GLOBAL_AREA : runtime.GLOBAL_AREA + len(image.data)
            ] = image.data

        self.regs = [0] * 16
        self.regs[runtime.R_PR_BASE] = runtime.PR_AREA
        self.regs[runtime.R_GLOBAL_BASE] = runtime.GLOBAL_AREA
        self.regs[runtime.R_CODE_BASE] = base
        # Frame zero for the main program's caller.
        frame0 = runtime.FRAME_AREA
        self.write_word(
            runtime.PR_AREA + runtime.OFF_NEXT_FRAME,
            frame0 + runtime.FRAME_SIZE,
        )
        self.regs[runtime.R_STACK_BASE] = frame0
        self.regs[runtime.R_LINK] = runtime.PR_AREA + runtime.OFF_HALT
        self.regs[runtime.R_ENTRY] = base + image.entry
        self.pc = base + image.entry
        self._halted = False
        self._trap = None
        self._output = []

    # ---- execution ------------------------------------------------------------------

    def run(self, max_steps: int = 2_000_000) -> SimResult:
        if self.predecode:
            try:
                steps = self._run_blocks(max_steps)
            finally:
                for block in self._blocks.values():
                    self._fold_block(block)
        else:
            # The reference loop: decode every step.
            steps = 0
            while not self._halted and self._trap is None:
                if steps >= max_steps:
                    raise self._step_limit(max_steps)
                self.step()
                steps += 1
        return SimResult(
            output="".join(self._output),
            steps=steps,
            halted=self._halted,
            trap=self._trap,
            instruction_counts=dict(self._counts),
        )

    def _step_limit(self, max_steps: int) -> SimulatorError:
        return self._fault(
            StepLimitError, f"exceeded {max_steps} steps (runaway program?)"
        )

    def _run_blocks(self, max_steps: int) -> int:
        """Run compiled blocks where there are any, :meth:`step`
        elsewhere; returns the number of instructions executed.

        A block is entered only when all of it fits under the step
        limit, so the limit trips at exactly the reference's
        instruction.  A leader is a pc reached by a block exit or by
        stepping an instruction that ends blocks (:data:`_ENDS_BLOCK`).
        """
        if self._halted or self._trap is not None:
            return 0
        blocks = self._blocks
        entries = self._entries
        regs, memory, lines = self.regs, self.memory, self._code_lines
        ends_block = _ENDS_BLOCK
        step = self.step
        steps = 0
        leader = True
        while True:
            if steps >= max_steps:
                raise self._step_limit(max_steps)
            pc = self.pc
            block = blocks.get(pc)
            if block is None and leader:
                entered = entries.get(pc, 0) + 1
                entries[pc] = entered
                if entered == COMPILE_THRESHOLD:
                    block = self._compile(pc)
            if block is not None and steps + block.length <= max_steps:
                done = block.fn(self, regs, memory, lines)
                steps += done
                if done == block.length:
                    block.hits += 1
                    leader = True
                    continue
                # The block bailed before instruction ``done``: count
                # the prefix it ran, then step the instruction.
                for name in block.names[:done]:
                    self._counts[name] += 1
                pc = self.pc
            step()
            steps += 1
            if self._halted or self._trap is not None:
                return steps
            leader = ends_block[memory[pc]]

    def step(self) -> None:
        opcode = self.read_byte(self.pc)
        info = isa.BY_OPCODE.get(opcode)
        if info is None:
            raise self._fault(
                InvalidOpcodeError,
                f"unknown opcode {opcode:#04x} at {self.pc:#x}",
            )
        self._counts[info.mnemonic] += 1
        handler = getattr(self, f"_x_{info.format.lower()}")
        handler(info)

    # ---- compiled blocks --------------------------------------------------------------

    def _compile(self, pc: int) -> Optional["_Block"]:
        """Compile the block at ``pc``; ``None`` when its first
        instruction is one the block compiler leaves to :meth:`step`."""
        end = _block_end(self.memory, pc)
        if end == pc:
            return None
        block = _Block(end, *_compile_block(
            pc, bytes(self.memory[pc:end]), self.strict_alignment,
            len(self.memory),
        ))
        self._blocks[pc] = block
        for line in range(pc >> 4, ((end - 1) >> 4) + 1):
            self._code_lines.setdefault(line, set()).add(pc)
        return block

    def _forget(self, pc: int) -> None:
        """Drop the compiled block at ``pc``, keeping its counts."""
        block = self._blocks.pop(pc)
        self._fold_block(block)
        for line in range(pc >> 4, ((block.end - 1) >> 4) + 1):
            leaders = self._code_lines[line]
            leaders.discard(pc)
            if not leaders:
                del self._code_lines[line]
        self._entries.pop(pc, None)

    def _drop_blocks(self, address: int, length: int) -> None:
        """Drop the blocks whose [leader, end) overlaps a store into
        [address, address + length)."""
        stop = address + length
        for line in range(address >> 4, ((stop - 1) >> 4) + 1):
            for pc in list(self._code_lines.get(line, ())):
                if pc < stop and self._blocks[pc].end > address:
                    self._forget(pc)

    def _fold_block(self, block: "_Block") -> None:
        """Move the block's complete runs into ``_counts``."""
        if block.hits:
            for name, count in block.tally:
                self._counts[name] += count * block.hits
            block.hits = 0

    # ---- helpers -----------------------------------------------------------------------

    def _addr(self, x: int, b: int, d: int) -> int:
        address = d
        if x:
            address += to_u32(self.regs[x])
        if b:
            address += to_u32(self.regs[b])
        return to_u32(address) & 0xFFFFFF  # 24-bit addressing

    def _set_cc_value(self, value: int) -> None:
        signed = to_s32(value)
        self.cc = 0 if signed == 0 else (1 if signed < 0 else 2)

    def _set_cc_compare(self, a: int, b: int) -> None:
        self.cc = 0 if a == b else (1 if a < b else 2)

    def _arith(self, a: int, b: int, sub: bool) -> int:
        result = a - b if sub else a + b
        if result < -0x80000000 or result > 0x7FFFFFFF:
            self.cc = 3
            return to_s32(result)
        self.cc = 0 if result == 0 else (1 if result < 0 else 2)
        return result

    def _pair(self, r1: int) -> int:
        if r1 % 2:
            raise self._fault(
                RegisterPairFaultError,
                f"even/odd pair register {r1} is odd",
            )
        return to_s64((to_u32(self.regs[r1]) << 32) | to_u32(self.regs[r1 + 1]))

    def _set_pair(self, r1: int, value: int) -> None:
        value = to_u64(value)
        self.regs[r1] = to_u32(value >> 32)
        self.regs[r1 + 1] = to_u32(value)

    # ---- RR format ------------------------------------------------------------------------

    def _x_rr(self, info: isa.OpInfo) -> None:
        b1 = self.read_byte(self.pc + 1)
        r1, r2 = b1 >> 4, b1 & 0xF
        next_pc = self.pc + 2
        op = info.mnemonic
        s = lambda r: to_s32(self.regs[r])

        if op == "lr":
            self.regs[r1] = self.regs[r2]
        elif op == "ltr":
            self.regs[r1] = self.regs[r2]
            self._set_cc_value(self.regs[r1])
        elif op == "lcr":
            self.regs[r1] = to_u32(-s(r2))
            self._set_cc_value(self.regs[r1])
        elif op == "lpr":
            self.regs[r1] = to_u32(abs(s(r2)))
            self._set_cc_value(self.regs[r1])
        elif op == "lnr":
            self.regs[r1] = to_u32(-abs(s(r2)))
            self._set_cc_value(self.regs[r1])
        elif op == "ar":
            self.regs[r1] = to_u32(self._arith(s(r1), s(r2), sub=False))
        elif op == "sr":
            self.regs[r1] = to_u32(self._arith(s(r1), s(r2), sub=True))
        elif op == "alr":
            total = to_u32(self.regs[r1]) + to_u32(self.regs[r2])
            self.regs[r1] = to_u32(total)
            self.cc = (2 if total > 0xFFFFFFFF else 0) + (
                1 if to_u32(total) else 0
            )
        elif op == "slr":
            a, b = to_u32(self.regs[r1]), to_u32(self.regs[r2])
            self.regs[r1] = to_u32(a - b)
            if a < b:
                self.cc = 1        # borrow, nonzero
            else:
                self.cc = 2 if a == b else 3
        elif op == "mr":
            product = to_s32(self.regs[r1 + 1]) * s(r2)
            self._set_pair(r1, product)
        elif op == "dr":
            self._divide(r1, s(r2))
        elif op == "cr":
            self._set_cc_compare(s(r1), s(r2))
        elif op == "clr":
            self._set_cc_compare(to_u32(self.regs[r1]), to_u32(self.regs[r2]))
        elif op == "nr":
            self.regs[r1] = to_u32(self.regs[r1] & self.regs[r2])
            self.cc = 1 if self.regs[r1] else 0
        elif op == "or":
            self.regs[r1] = to_u32(self.regs[r1] | self.regs[r2])
            self.cc = 1 if self.regs[r1] else 0
        elif op == "xr":
            self.regs[r1] = to_u32(self.regs[r1] ^ self.regs[r2])
            self.cc = 1 if self.regs[r1] else 0
        elif op == "bcr":
            if r2 and (r1 >> (3 - self.cc)) & 1:
                next_pc = to_u32(self.regs[r2]) & 0xFFFFFF
        elif op == "balr":
            self.regs[r1] = next_pc
            if r2:
                next_pc = to_u32(self.regs[r2]) & 0xFFFFFF
        elif op == "bctr":
            self.regs[r1] = to_u32(s(r1) - 1)
            if r2 and to_u32(self.regs[r1]) != 0:
                next_pc = to_u32(self.regs[r2]) & 0xFFFFFF
        elif op == "mvcl":
            self._mvcl(r1, r2)
        else:
            raise self._fault(
                InvalidOpcodeError, f"unimplemented RR op {op!r}"
            )
        self.pc = next_pc

    def _divide(self, r1: int, divisor: int) -> None:
        if divisor == 0:
            self._trap = "divide by zero"
            return
        dividend = self._pair(r1)
        quotient = int(dividend / divisor)  # truncation toward zero
        remainder = dividend - quotient * divisor
        if quotient < -0x80000000 or quotient > 0x7FFFFFFF:
            self._trap = "fixed-point divide overflow"
            return
        self.regs[r1] = to_u32(remainder)
        self.regs[r1 + 1] = to_u32(quotient)

    def _mvcl(self, r1: int, r2: int) -> None:
        dest = to_u32(self.regs[r1]) & 0xFFFFFF
        dlen = to_u32(self.regs[r1 + 1]) & 0xFFFFFF
        src = to_u32(self.regs[r2]) & 0xFFFFFF
        slen = to_u32(self.regs[r2 + 1]) & 0xFFFFFF
        pad = (to_u32(self.regs[r2 + 1]) >> 24) & 0xFF
        for i in range(dlen):
            value = self.read_byte(src + i) if i < slen else pad
            self.write_byte(dest + i, value)
        moved = min(dlen, slen)
        self.regs[r1] = to_u32(dest + dlen)
        self.regs[r1 + 1] = 0
        self.regs[r2] = to_u32(src + moved)
        self.regs[r2 + 1] = to_u32(self.regs[r2 + 1]) & 0xFF000000
        self.cc = 0 if dlen == slen else (1 if dlen < slen else 2)

    # ---- RX format --------------------------------------------------------------------------

    def _x_rx(self, info: isa.OpInfo) -> None:
        b1 = self.read_byte(self.pc + 1)
        b2 = self.read_byte(self.pc + 2)
        b3 = self.read_byte(self.pc + 3)
        r1, x2 = b1 >> 4, b1 & 0xF
        b, d = b2 >> 4, ((b2 & 0xF) << 8) | b3
        address = self._addr(x2, b, d)
        next_pc = self.pc + 4
        op = info.mnemonic
        s = lambda r: to_s32(self.regs[r])

        if op == "l":
            self.regs[r1] = to_u32(self.read_word(address))
        elif op == "lh":
            self.regs[r1] = to_u32(self.read_half(address))
        elif op == "la":
            self.regs[r1] = address
        elif op == "st":
            self.write_word(address, self.regs[r1])
        elif op == "sth":
            self.write_half(address, self.regs[r1])
        elif op == "stc":
            self.write_byte(address, self.regs[r1])
        elif op == "ic":
            self.regs[r1] = to_u32(
                (self.regs[r1] & 0xFFFFFF00) | self.read_byte(address)
            )
        elif op == "a":
            self.regs[r1] = to_u32(
                self._arith(s(r1), to_s32(self.read_word(address)), sub=False)
            )
        elif op == "ah":
            self.regs[r1] = to_u32(
                self._arith(s(r1), self.read_half(address), sub=False)
            )
        elif op == "s":
            self.regs[r1] = to_u32(
                self._arith(s(r1), to_s32(self.read_word(address)), sub=True)
            )
        elif op == "sh":
            self.regs[r1] = to_u32(
                self._arith(s(r1), self.read_half(address), sub=True)
            )
        elif op == "m":
            product = to_s32(self.regs[r1 + 1]) * to_s32(self.read_word(address))
            self._set_pair(r1, product)
        elif op == "mh":
            self.regs[r1] = to_u32(s(r1) * self.read_half(address))
        elif op == "d":
            self._divide(r1, to_s32(self.read_word(address)))
        elif op == "c":
            self._set_cc_compare(s(r1), to_s32(self.read_word(address)))
        elif op == "ch":
            self._set_cc_compare(s(r1), self.read_half(address))
        elif op == "cl":
            self._set_cc_compare(
                to_u32(self.regs[r1]), to_u32(self.read_word(address))
            )
        elif op == "n":
            self.regs[r1] = to_u32(self.regs[r1] & self.read_word(address))
            self.cc = 1 if self.regs[r1] else 0
        elif op == "o":
            self.regs[r1] = to_u32(self.regs[r1] | self.read_word(address))
            self.cc = 1 if self.regs[r1] else 0
        elif op == "x":
            self.regs[r1] = to_u32(self.regs[r1] ^ self.read_word(address))
            self.cc = 1 if self.regs[r1] else 0
        elif op == "bc":
            if (r1 >> (3 - self.cc)) & 1:
                next_pc = address
        elif op == "bal":
            self.regs[r1] = next_pc
            next_pc = address
        elif op == "bct":
            self.regs[r1] = to_u32(s(r1) - 1)
            if to_u32(self.regs[r1]) != 0:
                next_pc = address
        else:
            raise self._fault(
                InvalidOpcodeError, f"unimplemented RX op {op!r}"
            )
        self.pc = next_pc

    # ---- RS format ---------------------------------------------------------------------------

    def _x_rs(self, info: isa.OpInfo) -> None:
        b1 = self.read_byte(self.pc + 1)
        b2 = self.read_byte(self.pc + 2)
        b3 = self.read_byte(self.pc + 3)
        r1, r3 = b1 >> 4, b1 & 0xF
        b, d = b2 >> 4, ((b2 & 0xF) << 8) | b3
        op = info.mnemonic

        if op in ("sla", "sra", "sll", "srl", "slda", "srda", "sldl", "srdl"):
            amount = self._addr(0, b, d) & 0x3F
            self._shift(op, r1, amount)
        elif op == "stm":
            address = self._addr(0, b, d)
            r = r1
            while True:
                self.write_word(address, self.regs[r])
                address += 4
                if r == r3:
                    break
                r = (r + 1) % 16
        elif op == "lm":
            address = self._addr(0, b, d)
            r = r1
            while True:
                self.regs[r] = to_u32(self.read_word(address))
                address += 4
                if r == r3:
                    break
                r = (r + 1) % 16
        else:
            raise self._fault(
                InvalidOpcodeError, f"unimplemented RS op {op!r}"
            )
        self.pc += 4

    def _shift(self, op: str, r1: int, amount: int) -> None:
        if op in ("slda", "srda", "sldl", "srdl"):
            value = self._pair(r1)
            if op == "slda":
                result = to_s64(value << amount)
                self._set_pair(r1, result)
                self.cc = 0 if result == 0 else (1 if result < 0 else 2)
            elif op == "srda":
                result = value >> amount
                self._set_pair(r1, result)
                self.cc = 0 if result == 0 else (1 if result < 0 else 2)
            elif op == "sldl":
                self._set_pair(r1, to_u64(to_u64(value) << amount))
            else:  # srdl
                self._set_pair(r1, to_u64(value) >> amount)
            return
        value = to_s32(self.regs[r1])
        if op == "sla":
            result = to_s32(value << amount)
            self.regs[r1] = to_u32(result)
            self.cc = 0 if result == 0 else (1 if result < 0 else 2)
        elif op == "sra":
            result = value >> amount
            self.regs[r1] = to_u32(result)
            self.cc = 0 if result == 0 else (1 if result < 0 else 2)
        elif op == "sll":
            self.regs[r1] = to_u32(to_u32(self.regs[r1]) << amount)
        else:  # srl
            self.regs[r1] = to_u32(self.regs[r1]) >> amount

    # ---- SI format -------------------------------------------------------------------------------

    def _x_si(self, info: isa.OpInfo) -> None:
        i2 = self.read_byte(self.pc + 1)
        b2 = self.read_byte(self.pc + 2)
        b3 = self.read_byte(self.pc + 3)
        b, d = b2 >> 4, ((b2 & 0xF) << 8) | b3
        address = self._addr(0, b, d)
        op = info.mnemonic

        if op == "mvi":
            self.write_byte(address, i2)
        elif op == "ni":
            value = self.read_byte(address) & i2
            self.write_byte(address, value)
            self.cc = 1 if value else 0
        elif op == "oi":
            value = self.read_byte(address) | i2
            self.write_byte(address, value)
            self.cc = 1 if value else 0
        elif op == "xi":
            value = self.read_byte(address) ^ i2
            self.write_byte(address, value)
            self.cc = 1 if value else 0
        elif op == "tm":
            value = self.read_byte(address) & i2
            if value == 0:
                self.cc = 0
            elif value == i2:
                self.cc = 3
            else:
                self.cc = 1
        elif op == "cli":
            self._set_cc_compare(self.read_byte(address), i2)
        else:
            raise self._fault(
                InvalidOpcodeError, f"unimplemented SI op {op!r}"
            )
        self.pc += 4

    # ---- SS format ---------------------------------------------------------------------------------

    def _x_ss(self, info: isa.OpInfo) -> None:
        length = self.read_byte(self.pc + 1) + 1  # length-1 encoding
        b2 = self.read_byte(self.pc + 2)
        b3 = self.read_byte(self.pc + 3)
        b4 = self.read_byte(self.pc + 4)
        b5 = self.read_byte(self.pc + 5)
        a1 = self._addr(0, b2 >> 4, ((b2 & 0xF) << 8) | b3)
        a2 = self._addr(0, b4 >> 4, ((b4 & 0xF) << 8) | b5)
        op = info.mnemonic

        if op == "mvc":
            for i in range(length):  # byte-at-a-time: overlap semantics
                self.write_byte(a1 + i, self.read_byte(a2 + i))
        elif op == "clc":
            self.cc = 0
            for i in range(length):
                x, y = self.read_byte(a1 + i), self.read_byte(a2 + i)
                if x != y:
                    self.cc = 1 if x < y else 2
                    break
        elif op in ("nc", "oc", "xc"):
            any_bits = 0
            for i in range(length):
                x, y = self.read_byte(a1 + i), self.read_byte(a2 + i)
                if op == "nc":
                    value = x & y
                elif op == "oc":
                    value = x | y
                else:
                    value = x ^ y
                self.write_byte(a1 + i, value)
                any_bits |= value
            self.cc = 1 if any_bits else 0
        else:
            raise self._fault(
                InvalidOpcodeError, f"unimplemented SS op {op!r}"
            )
        self.pc += 6

    # ---- SVC (the simulator's supervisor services) ------------------------------------------------------

    def _x_svc(self, info: isa.OpInfo) -> None:
        number = self.read_byte(self.pc + 1)
        self.pc += 2
        r1 = to_s32(self.regs[1])
        if number == isa.SVC_HALT:
            self._halted = True
        elif number == isa.SVC_WRITE_INT:
            self._output.append(str(r1))
        elif number == isa.SVC_WRITE_CHAR:
            self._output.append(chr(self.regs[1] & 0xFF))
        elif number == isa.SVC_WRITE_NL:
            self._output.append("\n")
        elif number == isa.SVC_WRITE_BOOL:
            self._output.append("true" if r1 & 1 else "false")
        elif number == isa.SVC_WRITE_STR:
            address = to_u32(self.regs[1]) & 0xFFFFFF
            count = to_u32(self.regs[2])
            self._check(address, count)
            self._output.append(
                self.memory[address : address + count].decode(
                    "ascii", "replace"
                )
            )
        elif number == isa.SVC_READ_INT:
            if self._input_pos >= len(self.input_values):
                self._trap = "read past end of input"
            else:
                self.regs[1] = to_u32(self.input_values[self._input_pos])
                self._input_pos += 1
        elif number == isa.SVC_CHECK_LOW:
            self._trap = "range check: underflow"
        elif number == isa.SVC_CHECK_HIGH:
            self._trap = "range check: overflow"
        elif number == isa.SVC_ABORT:
            self._trap = f"abort {r1}"
        else:
            raise self._fault(InvalidOpcodeError, f"unknown SVC {number}")



# ---- the block compiler ---------------------------------------------------------
#
# A block is the straight run of instructions from a leader up to and
# including the first branch.  It stops early before any instruction
# the compiler leaves to `step()` (SI, SS, SVC, `mvcl`, `lpr`/`lnr`/
# `alr`/`slr`, an unknown opcode, or a pair op naming an odd register)
# and after MAX_BLOCK instructions.  Its code is generated from the
# `_x_*` handlers' semantics into one function
#
#     def block(sim, R, M, L) -> int
#
# over the simulator, its register list, its memory and its code-line
# map.  Registers live in locals, loaded at entry and written back at
# exit.  The condition code lives in the local `cc`, but an instruction
# that sets it only records the expression that would compute it; the
# expression is evaluated where something needs the CC -- a branch, a
# bail or the block's exit -- and dropped when a later instruction sets
# the CC first.  Effective addresses and memory bounds are inlined, with
# the memory size baked in.  Before an instruction that could fault (a
# memory access out of bounds or, with strict alignment, misaligned; a
# zero divisor or a quotient overflow) or store into a code line, the
# block "bails": it writes its state back, sets `pc` to that
# instruction and returns the number of instructions it completed, and
# the caller steps the instruction.  A complete run returns the block
# length.

#: Entries of a block leader before it is compiled.
COMPILE_THRESHOLD = 2
#: Compiled blocks shared by every simulator in the process.
BLOCK_CACHE_SIZE = 1024
#: The longest block, in instructions.
MAX_BLOCK = 64

_BRANCHES = frozenset(("bc", "bcr", "bal", "balr", "bct", "bctr"))
_PAIR_OPS = frozenset(("mr", "dr", "m", "d", "slda", "srda", "sldl", "srdl"))
_COMPILED = _BRANCHES | _PAIR_OPS | frozenset((
    "lr", "ltr", "lcr", "ar", "sr", "cr", "clr", "nr", "or", "xr",
    "l", "lh", "la", "st", "sth", "stc", "ic", "a", "ah", "s", "sh",
    "mh", "c", "ch", "cl", "n", "o", "x",
    "sla", "sra", "sll", "srl", "stm", "lm",
))

#: opcode byte -> whether a block would end with or before that
#: instruction, so that the pc after :meth:`Simulator.step` executes
#: it is a block leader.
_ENDS_BLOCK = [
    info is None or info.mnemonic not in _COMPILED - _BRANCHES
    for info in isa.DECODE_TABLE
]

_SIGN = "0x80000000"
_U32 = "0xFFFFFFFF"
_U64 = "0xFFFFFFFFFFFFFFFF"


def _block_end(memory: bytearray, pc: int) -> int:
    """End address of the block that starts at ``pc`` (``pc`` itself
    when its first instruction is not compiled)."""
    size = len(memory)
    end = pc
    for _ in range(MAX_BLOCK):
        if end >= size:
            break
        info = isa.DECODE_TABLE[memory[end]]
        if (
            info is None
            or info.mnemonic not in _COMPILED
            or end + info.length > size
            or (info.mnemonic in _PAIR_OPS and memory[end + 1] & 0x10)
        ):
            break
        end += info.length
        if info.mnemonic in _BRANCHES:
            break
    return end


class _Block:
    """One simulator's handle on a compiled block: the shared function,
    its mnemonics in order and their (mnemonic, count) tally, the end
    address, and the complete runs not yet folded into the counts."""

    __slots__ = ("end", "fn", "names", "tally", "length", "hits")

    def __init__(self, end: int, fn: Callable[..., int],
                 names: Tuple[str, ...],
                 tally: Tuple[Tuple[str, int], ...]):
        self.end = end
        self.fn = fn
        self.names = names
        self.tally = tally
        self.length = len(names)
        self.hits = 0


@functools.lru_cache(maxsize=BLOCK_CACHE_SIZE)
def _compile_block(
    pc: int, code: bytes, strict_alignment: bool, memory_size: int
) -> Tuple[Callable[..., int], Tuple[str, ...], Tuple[Tuple[str, int], ...]]:
    """The block function for ``code`` loaded at ``pc``, the mnemonics
    it executes, and their (mnemonic, count) tally.

    The key is the block's exact bytes, so a changed or different image
    can never reuse stale code.
    """
    writer = _BlockWriter(strict_alignment, memory_size)
    offset = 0
    while offset < len(code):
        info = isa.DECODE_TABLE[code[offset]]
        raw = code[offset : offset + info.length]
        writer.instruction(pc + offset, info, raw)
        offset += info.length
    namespace: Dict[str, Callable[..., int]] = {}
    exec(
        compile(writer.source(), f"<block {pc:#x}>", "exec"),
        _BLOCK_GLOBALS, namespace,
    )
    names = tuple(writer.names)
    return namespace["block"], names, tuple(Counter(names).items())


#: Memory accessors the block functions call: U<n>/P<n> unpack/pack
#: n unsigned big-endian words, SW/SH unpack a signed word/halfword,
#: PH packs a halfword.
_BLOCK_GLOBALS = {
    "SW": struct.Struct(">i").unpack_from,
    "SH": struct.Struct(">h").unpack_from,
    "PH": struct.Struct(">H").pack_into,
}
for _n in range(1, 17):
    _BLOCK_GLOBALS[f"U{_n}"] = struct.Struct(f">{_n}I").unpack_from
    _BLOCK_GLOBALS[f"P{_n}"] = struct.Struct(f">{_n}I").pack_into
del _n


def _signed(reg: str) -> str:
    return f"(({reg} ^ {_SIGN}) - {_SIGN})"


def _value_cc(t: str) -> str:
    """CC of a load-and-test: ``t`` holds the unsigned 32-bit result."""
    return f"((1 if {t} & {_SIGN} else 2) if {t} else 0)"


def _arith_cc(t: str) -> str:
    """CC of a signed add or subtract with exact result ``t``."""
    return (
        f"(3 if {t} < -2147483648 or {t} > 2147483647 "
        f"else (1 if {t} < 0 else 2) if {t} else 0)"
    )


def _compare_cc(t: str, u: str) -> str:
    return f"(0 if {t} == {u} else 1 if {t} < {u} else 2)"


def _branch_cond(mask: int) -> Optional[str]:
    """Python test on ``cc`` for a BC/BCR mask (``None``: always)."""
    taken = [cc for cc in range(4) if (mask >> (3 - cc)) & 1]
    if len(taken) == 4:
        return None
    if len(taken) == 1:
        return f"cc == {taken[0]}"
    if len(taken) == 3:
        return f"cc != {({0, 1, 2, 3} - set(taken)).pop()}"
    return f"{sum(1 << cc for cc in taken)} >> cc & 1"


class _BlockWriter:
    """Generates the source of one block function, instruction by
    instruction (see "the block compiler" above)."""

    def __init__(self, strict_alignment: bool, memory_size: int):
        self.strict = strict_alignment
        self.size = memory_size
        self.body: List[str] = []
        self.names: List[str] = []
        self.pcs: List[int] = []
        self.used: Set[int] = set()
        self.written: Set[int] = set()
        #: the CC expression set by the last CC-setting instruction,
        #: not yet stored into ``cc``.
        self.pending: Optional[str] = None
        self.sets_cc = False
        self.reads_cc = False
        self.bails = False
        #: the pc expression the block exits with.
        self.exit = ""

    # -- operands -------------------------------------------------------

    def get(self, r: int) -> str:
        self.used.add(r)
        return f"r{r}"

    def put(self, r: int) -> str:
        self.used.add(r)
        self.written.add(r)
        return f"r{r}"

    def address(self, x: int, b: int, d: int) -> str:
        """Assign the effective address to ``a`` (mirrors `_addr`)."""
        terms = ([str(d)] if d else []) + [self.get(r) for r in (x, b) if r]
        if not terms:
            return "0"
        if len(terms) == 1 and not (x or b):
            return terms[0]
        self.emit(f"a = ({' + '.join(terms)}) & 0xFFFFFF")
        return "a"

    # -- statements -----------------------------------------------------

    def emit(self, line: str) -> None:
        self.body.append(line)

    def set_cc(self, expression: str) -> None:
        self.pending = expression
        self.sets_cc = True

    def read_cc(self) -> None:
        self.reads_cc = True
        if self.pending is not None:
            self.emit(f"cc = {self.pending}")
            self.pending = None

    def bail(self, condition: str) -> None:
        """Leave the block before the current instruction when
        ``condition`` holds."""
        self.bails = True
        store_cc = f"cc = {self.pending}; " if self.pending else ""
        done = len(self.names) - 1
        self.emit(f"if {condition}: {store_cc}n = {done}; break")

    def access(self, a: str, length: int, store: bool = False,
               align: int = 0) -> None:
        """Bail unless the reference would access ``length`` bytes at
        ``a`` (on an ``align``-byte boundary, default ``length``)
        without a fault -- and, for a store, outside compiled code."""
        tests = [f"{a} > {self.size - length}"]
        align = align or length
        if self.strict and align > 1:
            tests.append(f"{a} & {align - 1}")
        if store:
            offsets = sorted({*range(0, length, 16), length - 1})
            tests += [
                f"{a} + {k} >> 4 in L" if k else f"{a} >> 4 in L"
                for k in offsets
            ]
        self.bail(" or ".join(tests))

    # -- instructions ---------------------------------------------------

    def instruction(self, pc: int, info: isa.OpInfo, raw: bytes) -> None:
        i = len(self.names)
        self.names.append(info.mnemonic)
        self.pcs.append(pc)
        nxt = pc + info.length
        self.exit = str(nxt)
        op = info.mnemonic
        r1, r2 = raw[1] >> 4, raw[1] & 0xF
        if info.format == "RR":
            if op in _BRANCHES:
                self.branch_rr(op, r1, r2, nxt)
            else:
                x = self.get(r2)
                self.alu(op[:-1], r1, x, _signed(x), i)
            return
        b, d = raw[2] >> 4, ((raw[2] & 0xF) << 8) | raw[3]
        if info.format == "RS":
            self.rs(op, r1, r2, b, d, i)
        else:
            self.rx(op, r1, self.address(r2, b, d), nxt, i)

    def branch_rr(self, op: str, r1: int, r2: int, nxt: int) -> None:
        """BCR, BALR, BCTR: a zero r2 means "do not branch"."""
        target = f"({self.get(r2)} & 0xFFFFFF)" if r2 else None
        if op == "bcr":
            condition = _branch_cond(r1)
            if target and r1:
                if condition is None:
                    self.exit = target
                else:
                    self.read_cc()
                    self.exit = f"{target} if {condition} else {nxt}"
        elif op == "balr":
            # The target register is read after the link is written.
            self.emit(f"{self.put(r1)} = {nxt}")
            if target:
                self.exit = target
        else:  # bctr
            x = self.put(r1)
            self.emit(f"{x} = ({x} - 1) & {_U32}")
            if target:
                self.exit = f"{target} if {x} else {nxt}"

    def rx(self, op: str, r1: int, a: str, nxt: int, i: int) -> None:
        if op == "la":
            self.emit(f"{self.put(r1)} = {a}")
        elif op == "bc":
            condition = _branch_cond(r1)
            if condition is None:
                self.exit = a
            elif r1:
                self.read_cc()
                self.exit = f"{a} if {condition} else {nxt}"
        elif op == "bal":
            self.emit(f"{self.put(r1)} = {nxt}")
            self.exit = a
        elif op == "bct":
            x = self.put(r1)
            self.emit(f"{x} = ({x} - 1) & {_U32}")
            self.exit = f"{a} if {x} else {nxt}"
        elif op in ("st", "sth", "stc"):
            length = {"st": 4, "sth": 2, "stc": 1}[op]
            self.access(a, length, store=True)
            x = self.get(r1)
            self.emit({
                "st": f"P1(M, {a}, {x})",
                "sth": f"PH(M, {a}, {x} & 0xFFFF)",
                "stc": f"M[{a}] = {x} & 0xFF",
            }[op])
        elif op == "ic":
            self.access(a, 1)
            x = self.get(r1)
            self.emit(f"{self.put(r1)} = {x} & 0xFFFFFF00 | M[{a}]")
        elif op == "mh":
            self.access(a, 2)
            product = f"({_signed(self.get(r1))} * SH(M, {a})[0]) & {_U32}"
            self.emit(f"{self.put(r1)} = {product}")
        elif op in ("lh", "ah", "sh", "ch"):
            self.access(a, 2)
            half = f"SH(M, {a})[0]"
            self.alu(op[:-1], r1, f"{half} & {_U32}", half, i)
        else:
            self.access(a, 4)
            self.alu(op, r1, f"U1(M, {a})[0]", f"SW(M, {a})[0]", i)

    def alu(self, op: str, r1: int, unsigned: str, signed: str,
            i: int) -> None:
        """The register-and-operand instructions of the RR and RX
        formats, named without their RR ``r`` or halfword ``h``
        suffix; ``unsigned`` and ``signed`` read the second operand."""
        t, u = f"t{i}", f"u{i}"
        x = self.get(r1)
        if op == "l":
            self.emit(f"{self.put(r1)} = {unsigned}")
        elif op in ("lt", "lc"):
            value = unsigned if op == "lt" else f"-{unsigned} & {_U32}"
            self.emit(f"{self.put(r1)} = {t} = {value}")
            self.set_cc(_value_cc(t))
        elif op in ("a", "s"):
            sign = "+" if op == "a" else "-"
            self.emit(f"{t} = {_signed(x)} {sign} {signed}")
            self.emit(f"{self.put(r1)} = {t} & {_U32}")
            self.set_cc(_arith_cc(t))
        elif op in ("c", "cl"):
            self.emit(f"{t} = {_signed(x) if op == 'c' else x}")
            self.emit(f"{u} = {signed if op == 'c' else unsigned}")
            self.set_cc(_compare_cc(t, u))
        elif op in ("n", "o", "x"):
            sym = {"n": "&", "o": "|", "x": "^"}[op]
            self.emit(f"{self.put(r1)} = {t} = {x} {sym} {unsigned}")
            self.set_cc(f"(1 if {t} else 0)")
        elif op == "m":
            self.multiply(r1, signed, t)
        else:  # d
            self.divide(r1, signed, i)

    def rs(self, op: str, r1: int, r3: int, b: int, d: int, i: int) -> None:
        t = f"t{i}"
        if op in ("stm", "lm"):
            regs = [r1]
            while regs[-1] != r3:
                regs.append((regs[-1] + 1) % 16)
            a = self.address(0, b, d)
            self.access(a, 4 * len(regs), store=op == "stm", align=4)
            if op == "stm":
                values = ", ".join(self.get(r) for r in regs)
                self.emit(f"P{len(regs)}(M, {a}, {values})")
            else:
                targets = ", ".join(self.put(r) for r in regs)
                self.emit(f"{targets}, = U{len(regs)}(M, {a})")
            return
        amount = f"(({self.get(b)} + {d}) & 63)" if b else str(d & 63)
        if op in ("sla", "sra", "sll", "srl"):
            x = self.get(r1)
            shifted = {
                "sla": f"({x} << {amount}) & {_U32}",
                "sra": f"({_signed(x)} >> {amount}) & {_U32}",
                "sll": f"({x} << {amount}) & {_U32}",
                "srl": f"{x} >> {amount}",
            }[op]
            if op in ("sla", "sra"):
                self.emit(f"{self.put(r1)} = {t} = {shifted}")
                self.set_cc(_value_cc(t))
            else:
                self.emit(f"{self.put(r1)} = {shifted}")
            return
        pair = f"({self.get(r1)} << 32 | {self.get(r1 + 1)})"
        self.emit(f"{t} = " + {
            "slda": f"({pair} << {amount}) & {_U64}",
            "sldl": f"({pair} << {amount}) & {_U64}",
            "srda": f"(({pair} ^ 0x8000000000000000) - 0x8000000000000000 "
                    f">> {amount}) & {_U64}",
            "srdl": f"{pair} >> {amount}",
        }[op])
        self.set_pair(r1, t)
        if op in ("slda", "srda"):
            self.set_cc(f"((1 if {t} >> 63 else 2) if {t} else 0)")

    def set_pair(self, r1: int, t: str) -> None:
        """Split the unsigned 64-bit ``t`` into the pair ``r1``, ``r1+1``."""
        self.emit(f"{self.put(r1)} = {t} >> 32")
        self.emit(f"{self.put(r1 + 1)} = {t} & {_U32}")

    def multiply(self, r1: int, factor: str, t: str) -> None:
        self.emit(f"{t} = ({_signed(self.get(r1 + 1))} * {factor}) & {_U64}")
        self.set_pair(r1, t)

    def divide(self, r1: int, divisor: str, i: int) -> None:
        """Mirror `_divide`; a zero divisor or an overflowing quotient
        bails, so the reference sets the trap."""
        v, t, q = f"v{i}", f"t{i}", f"q{i}"
        self.emit(f"{v} = {divisor}")
        self.bail(f"not {v}")
        self.emit(f"{t} = {self.get(r1)} << 32 | {self.get(r1 + 1)}")
        self.emit(f"if {t} >> 63: {t} -= 0x10000000000000000")
        self.emit(f"{q} = int({t} / {v})")
        self.bail(f"{q} < -2147483648 or {q} > 2147483647")
        self.emit(f"{self.put(r1)} = ({t} - {q} * {v}) & {_U32}")
        self.emit(f"{self.put(r1 + 1)} = {q} & {_U32}")

    # -- the function ---------------------------------------------------

    def source(self) -> str:
        if self.pending is not None:
            self.read_cc()
        entry = [f"r{r} = R[{r}]" for r in sorted(self.used)]
        if self.sets_cc or self.reads_cc:
            entry.append("cc = sim.cc")
        write_back = [f"R[{r}] = r{r}" for r in sorted(self.written)]
        if self.sets_cc:
            write_back.append("sim.cc = cc")
        lines = ["def block(sim, R, M, L):"]
        lines += ["    " + line for line in entry]
        indent = "    "
        if self.bails:
            lines.append("    while 1:")
            indent = "        "
        lines += [indent + line for line in self.body + write_back]
        lines.append(f"{indent}sim.pc = {self.exit}")
        lines.append(f"{indent}return {len(self.names)}")
        if self.bails:
            lines += ["    " + line for line in write_back]
            lines.append(f"    sim.pc = {tuple(self.pcs)}[n]")
            lines.append("    return n")
        return "\n".join(lines) + "\n"
