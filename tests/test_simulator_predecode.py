"""Differential tests: compiled blocks vs. the reference loop.

The block engine (``predecode=True``, the only user-facing lane) must be
observationally identical to the decode-every-step reference loop
(``predecode=False``) on results, instruction counts, traps and their
PSWs, step limits, alignment behavior, self-modifying code and block
state dropped between chunks of a run -- its only permitted difference
is speed.
"""

import random

import pytest

from repro.bench import workloads as W
from repro.errors import (
    RegisterPairFaultError, SimulatorError, StepLimitError,
)
from repro.core.codegen.emitter import Imm, Instr, Mem, R
from repro.machines.s370 import isa, runtime
from repro.machines.s370.encode import S370Encoder
from repro.machines.s370.simulator import (
    Simulator, _block_end, _compile_block,
)
from repro.pascal.compiler import compile_source

ENC = S370Encoder()
BASE = runtime.MODULE_BASE
GLOBALS = runtime.GLOBAL_AREA
CODE = runtime.R_CODE_BASE


def _image(instrs, data=b""):
    code = b"".join(ENC.encode(i) for i in instrs)
    code += ENC.encode(Instr("svc", (Imm(isa.SVC_HALT),)))
    return runtime.ExecutableImage(code=code, entry=0, data=data)


def _offset(instrs, index):
    """Byte offset of ``instrs[index]`` in its image."""
    return sum(len(ENC.encode(i)) for i in instrs[:index])


def _run(image, predecode, setup=None, strict_alignment=False,
         max_steps=2_000_000):
    """Run one lane; returns (outcome, simulator).  The outcome is
    ('ok', result, regs, cc, pc) or ('error', type, message, psw,
    counts)."""
    sim = Simulator(strict_alignment=strict_alignment, predecode=predecode)
    sim.load_image(image)
    if setup:
        setup(sim)
    try:
        result = sim.run(max_steps=max_steps)
    except SimulatorError as error:
        return ("error", type(error).__name__, str(error),
                getattr(error, "psw", None), dict(sim._counts)), sim
    return ("ok", result, list(sim.regs), sim.cc, sim.pc), sim


def _run_lane(image, predecode, setup=None, strict_alignment=False,
              max_steps=2_000_000):
    return _run(image, predecode, setup, strict_alignment, max_steps)[0]


def _assert_lanes_agree(image, setup=None, strict_alignment=False,
                        max_steps=2_000_000):
    fast = _run_lane(image, True, setup, strict_alignment, max_steps)
    slow = _run_lane(image, False, setup, strict_alignment, max_steps)
    assert fast == slow
    return fast


class TestLaneDifferential:
    @pytest.mark.parametrize(
        "source",
        [
            W.appendix1_equation(),
            W.appendix1_fragment(),
            W.straightline(40, seed=5),
            W.branch_ladder(25),
            W.array_kernel(10),
            W.loop_kernel(120),
            W.chain_loop(40),
            W.cse_workload(3),
        ],
        ids=["app1a", "app1b", "straight", "ladder", "arrays", "loop",
             "chain", "cse"],
    )
    def test_compiled_workloads_identical(self, source):
        compiled = compile_source(source)
        image = compiled.image()
        fast = _assert_lanes_agree(image)
        assert fast[0] == "ok"
        result = fast[1]
        assert result.halted and result.trap is None
        assert result.instruction_counts  # Counter contents compared too

    def test_strict_alignment_faults_identically(self):
        image = _image(
            [Instr("l", (R(3), Mem(2, 0, runtime.R_GLOBAL_BASE)))]
        )
        fast = _assert_lanes_agree(image, strict_alignment=True)
        assert fast[0] == "error"
        assert fast[1] == "AlignmentFaultError"
        assert fast[3] is not None  # PSW context attached in both lanes

    def test_strict_alignment_off_tolerates_identically(self):
        def setup(sim):
            sim.memory[GLOBALS + 2:GLOBALS + 6] = (77).to_bytes(4, "big")

        image = _image(
            [Instr("l", (R(3), Mem(2, 0, runtime.R_GLOBAL_BASE)))]
        )
        fast = _assert_lanes_agree(image, setup=setup)
        assert fast[0] == "ok"
        assert fast[2][3] == 77

    def test_register_pair_fault_typed_in_both_lanes(self):
        # SRDA of an odd first register is a specification exception:
        # both lanes must raise the typed trap with the same PSW.
        image = _image([Instr("srda", (R(3), Imm(1)))])
        fast = _assert_lanes_agree(image)
        assert fast[0] == "error"
        assert fast[1] == "RegisterPairFaultError"
        assert fast[3] is not None and fast[3]["pc"] == BASE

    def test_register_pair_fault_raised_directly(self):
        sim = Simulator()
        with pytest.raises(RegisterPairFaultError):
            sim._pair(5)


#: Memory operations for the fault-position sweep, each addressed off
#: the base register it is given.  Data registers are r2, r3, r5, r6.
_MEMORY_OPS = [
    lambda b: Instr("l", (R(2), Mem(0, 0, b))),
    lambda b: Instr("a", (R(2), Mem(4, 0, b))),
    lambda b: Instr("st", (R(2), Mem(8, 0, b))),
    lambda b: Instr("lh", (R(5), Mem(12, 0, b))),
    lambda b: Instr("sth", (R(5), Mem(14, 0, b))),
    lambda b: Instr("stc", (R(5), Mem(16, 0, b))),
    lambda b: Instr("ic", (R(6), Mem(17, 0, b))),
    lambda b: Instr("c", (R(2), Mem(0, 0, b))),
    lambda b: Instr("n", (R(6), Mem(4, 0, b))),
    lambda b: Instr("stm", (R(2), R(6), Mem(20, 0, b))),
    lambda b: Instr("lm", (R(2), R(3), Mem(20, 0, b))),
]


def _fault_loop(position):
    """A loop whose block sets the CC, then runs every memory op --
    the one at ``position`` addressed off r7, which ``ar r7,r8`` moves
    each iteration."""
    body = [Instr("cr", (R(2), R(5)))]
    body += [
        op(7 if k == position else runtime.R_GLOBAL_BASE)
        for k, op in enumerate(_MEMORY_OPS)
    ]
    return body + [
        Instr("ar", (R(7), R(8))),
        Instr("bct", (R(9), Mem(0, 0, CODE))),
    ]


class TestTraps:
    """Each way a run stops early stops both lanes at the same
    instruction, with the same PSW, registers and counts."""

    def test_step_limit_trap_identical(self):
        instrs = [
            Instr("la", (R(3), Mem(1, 0, 3))),
            Instr("bc", (Imm(15), Mem(0, 0, CODE))),
        ]
        for limit in (7, 8, 9, 16, 17, 100):
            fast = _assert_lanes_agree(_image(instrs), max_steps=limit)
            assert fast[0] == "error"
            assert fast[1] == "StepLimitError"
            assert fast[3] is not None

    def test_step_limit_sweep_lands_inside_blocks(self):
        """Every limit from 1 to 200 on a compiled loop: the limit
        falls at every offset inside its blocks, and the trap fires at
        the reference's instruction with the reference's state."""
        image = compile_source(W.chain_loop(10)).image()
        for limit in range(1, 201):
            fast = _assert_lanes_agree(image, max_steps=limit)
            assert fast[0] == "error" and fast[1] == "StepLimitError"
        _, sim = _run(image, True, max_steps=200)
        assert sim.compiled_blocks  # the sweep did run compiled code

    @pytest.mark.parametrize("position", range(len(_MEMORY_OPS)))
    @pytest.mark.parametrize("strict", [False, True])
    def test_bad_base_register_at_each_position(self, position, strict):
        """The second pass runs the block compiled at the loop head;
        there the op at ``position`` faults (out of memory, or
        misaligned with strict alignment), and the trap PSW (pc, cc,
        regs) and counts must equal the reference's."""
        instrs = _fault_loop(position)

        def setup(sim):
            sim.regs[2], sim.regs[5] = 7, 9
            sim.regs[7] = GLOBALS
            sim.regs[8] = 1 if strict else 0x300000
            sim.regs[9] = 4
            sim.memory[GLOBALS:GLOBALS + 8] = bytes(range(1, 9))

        fast, sim = _run(_image(instrs), True, setup, strict)
        assert fast == _run_lane(_image(instrs), False, setup, strict)
        assert BASE in sim.compiled_blocks
        if not strict:
            assert fast[1] == "MemoryFaultError"
            assert fast[3]["pc"] == BASE + _offset(instrs, position + 1)

    def test_divide_trap_identical(self):
        """A fixed-point divide by zero traps before the instructions
        behind it execute."""
        instrs = [
            Instr("la", (R(2), Mem(0, 0, 0))),   # r2 = 0 (divisor)
            Instr("la", (R(9), Mem(7, 0, 0))),   # r9 = 7
            Instr("srda", (R(8), Imm(32))),      # spread r8:r9
            Instr("dr", (R(8), R(2))),           # divide by zero: trap
            Instr("la", (R(6), Mem(1, 0, 0))),   # must NOT execute
        ]
        fast = _assert_lanes_agree(_image(instrs))
        assert fast[0] == "ok"
        assert fast[1].trap is not None
        assert fast[2][6] == 0

    @pytest.mark.parametrize("dividend", [7, -(1 << 32)])
    def test_divide_trap_inside_compiled_block(self, dividend):
        """A loop divides by a divisor it counts down: the zero divisor
        (or, for the huge dividend, the overflowing quotient) is met in
        the compiled block, which must hand the divide to the
        reference."""
        instrs = [
            Instr("lr", (R(8), R(4))),
            Instr("lr", (R(9), R(5))),
            Instr("dr", (R(8), R(2))),
            Instr("bctr", (R(2), R(0))),
            Instr("bct", (R(3), Mem(0, 0, CODE))),
        ]

        def setup(sim):
            sim.regs[2], sim.regs[3] = 3, 10
            sim.regs[4] = (dividend >> 32) & 0xFFFFFFFF
            sim.regs[5] = dividend & 0xFFFFFFFF

        fast, sim = _run(_image(instrs), True, setup)
        assert fast == _run_lane(_image(instrs), False, setup)
        assert fast[1].trap is not None
        assert BASE in sim.compiled_blocks

    def test_halt_mid_sequence_identical(self):
        instrs = [
            Instr("la", (R(3), Mem(1, 0, 0))),
            Instr("svc", (Imm(isa.SVC_HALT),)),
            Instr("la", (R(4), Mem(9, 0, 0))),   # must NOT execute
        ]
        fast = _assert_lanes_agree(_image(instrs))
        assert fast[0] == "ok"
        assert fast[1].halted
        assert fast[2][3] == 1 and fast[2][4] == 0

    def test_taken_branch_identical(self):
        """A loop branch taken four times, then falling through."""
        instrs = [
            Instr("la", (R(3), Mem(1, 0, 3))),                   # r3 += 1
            Instr("bct", (R(4), Mem(0, 0, CODE))),
            Instr("lr", (R(5), R(3))),
        ]

        def setup(sim):
            sim.regs[3] = 0
            sim.regs[4] = 5

        fast = _assert_lanes_agree(_image(instrs), setup=setup)
        assert fast[0] == "ok"
        assert fast[2][3] == 5 and fast[2][5] == 5

    def test_branch_first_in_block_reads_entry_cc(self):
        """A block that starts with ``bc`` tests the CC the previous
        block left behind."""
        instrs = [
            Instr("la", (R(3), Mem(1, 0, 3))),           # 0: r3 += 1
            Instr("cr", (R(3), R(4))),                   # 4
            Instr("bc", (Imm(15), Mem(10, 0, CODE))),    # 6
            Instr("bc", (Imm(8), Mem(18, 0, CODE))),     # 10: exit if equal
            Instr("bc", (Imm(15), Mem(0, 0, CODE))),     # 14
        ]

        def setup(sim):
            sim.regs[4] = 5

        fast, sim = _run(_image(instrs), True, setup)
        assert fast == _run_lane(_image(instrs), False, setup)
        assert fast[0] == "ok" and fast[2][3] == 5
        assert sim.compiled_blocks.get(BASE + 10) == BASE + 14


def _patch_loop(load, store):
    """An inner loop over ``AR r3,r7`` (the block at +4) that compiles
    and runs before ``store`` patches it; the outer loop then runs the
    patched code."""
    return [
        load,                                          # 0: r6 = patch
        Instr("ar", (R(3), R(7))),                     # 4: inner loop
        Instr("bct", (R(4), Mem(4, 0, CODE))),         # 6
        store,                                         # 10: patch +4/+5
        Instr("la", (R(4), Mem(3, 0, 0))),             # 14
        Instr("bct", (R(5), Mem(4, 0, CODE))),         # 18: outer loop
    ]


def _patch_setup(sim):
    sim.regs[3] = 0
    sim.regs[4] = 3
    sim.regs[5] = 2
    sim.regs[7] = 10
    sim.regs[8] = 1


class TestSelfModifyingCode:
    def test_store_rewrites_future_iteration(self):
        """A loop block rewritten after it was compiled.

        The inner loop runs ``AR r3,r7`` (r3 += 10) three times, the
        last ones as a compiled block; then a halfword store turns it
        into ``SR r3,r7``, and the outer loop's second pass must run
        the subtract in *both* lanes -- the block engine only passes if
        the store dropped the compiled block.
        """
        instrs = _patch_loop(
            Instr("lh", (R(6), Mem(0, 0, runtime.R_GLOBAL_BASE))),
            Instr("sth", (R(6), Mem(4, 0, CODE))),
        )
        data = ENC.encode(Instr("sr", (R(3), R(7)))) + b"\x00\x00"
        image = _image(instrs, data=data)
        compiled = []

        def setup(sim):
            _patch_setup(sim)
            compile_block = sim._compile
            sim._compile = lambda pc: compiled.append(pc) or compile_block(pc)

        fast = _run_lane(image, True, setup)
        assert fast == _run_lane(image, False, _patch_setup)
        assert fast[0] == "ok"
        assert fast[2][3] == 0  # 3 x +10, then 3 x -10
        # Both passes ran the inner loop compiled: the store dropped
        # the first block and the patched loop compiled afresh.
        assert compiled.count(BASE + 4) == 2

    def test_store_inside_the_running_block(self):
        """A compiled loop block stores into its own later instruction:
        an ``A`` while a table supplies its encoding, an ``S`` from the
        fourth pass on.  The block must leave before each such store,
        so no pass runs a stale add."""
        add = ENC.encode(Instr("a", (R(3), Mem(40, 0, 11))))
        sub = ENC.encode(Instr("s", (R(3), Mem(40, 0, 11))))
        data = add * 3 + sub * 7 + (10).to_bytes(4, "big")
        instrs = [
            Instr("l", (R(6), Mem(0, 7, runtime.R_GLOBAL_BASE))),  # 0
            Instr("la", (R(7), Mem(4, 0, 7))),                     # 4
            Instr("st", (R(6), Mem(12, 0, CODE))),                 # 8
            Instr("a", (R(3), Mem(40, 0, runtime.R_GLOBAL_BASE))), # 12
            Instr("bct", (R(4), Mem(0, 0, CODE))),                 # 16
        ]

        def setup(sim):
            sim.regs[4] = 6

        fast = _assert_lanes_agree(_image(instrs, data=data), setup=setup)
        assert fast[0] == "ok"
        assert fast[2][3] == 0  # 3 x +10, then 3 x -10

    def test_store_outside_text_identical(self):
        """A store into plain data leaves the blocks alone and the
        results identical."""
        instrs = [
            Instr("la", (R(3), Mem(42, 0, 0))),
            Instr("st", (R(3), Mem(0, 0, runtime.R_GLOBAL_BASE))),
            Instr("l", (R(5), Mem(0, 0, runtime.R_GLOBAL_BASE))),
        ]
        fast = _assert_lanes_agree(_image(instrs))
        assert fast[0] == "ok"
        assert fast[2][5] == 42

    def test_invalidation_is_exact(self):
        """A store drops exactly the compiled blocks it overlaps."""
        instrs = [
            Instr("lr", (R(1), R(1))),                  # 0: block [0, 4)
            Instr("bcr", (Imm(0), R(0))),               # 2
            Instr("lr", (R(1), R(1))),                  # 4: block [4, 8)
            Instr("bcr", (Imm(0), R(0))),               # 6
            Instr("lr", (R(1), R(1))),                  # 8: block [8, 14)
            Instr("bct", (R(4), Mem(0, 0, CODE))),      # 10
        ]

        def setup(sim):
            sim.regs[4] = 3

        fast, sim = _run(_image(instrs), True, setup)
        assert fast[0] == "ok"
        blocks = {BASE: BASE + 4, BASE + 4: BASE + 8, BASE + 8: BASE + 14}
        assert sim.compiled_blocks == blocks

        # A store into a code line outside every block (the halt at
        # +14) drops nothing.
        sim.write_half(BASE + 14, 0)
        assert sim.compiled_blocks == blocks
        # A halfword store over [+4, +6) drops only the block at +4:
        # the block at +0 ends exactly at +4.
        sim.write_half(BASE + 4, 0)
        del blocks[BASE + 4]
        assert sim.compiled_blocks == blocks
        # A byte store one past a block's start drops it by overlap.
        sim.write_byte(BASE + 9, 0)
        del blocks[BASE + 8]
        assert sim.compiled_blocks == blocks
        # Stores outside the text region leave the blocks alone.
        sim.write_word(GLOBALS, 123)
        assert sim.compiled_blocks == blocks
        # A word store across two blocks' bytes drops both.
        sim.write_word(BASE + 2, 0)
        assert sim.compiled_blocks == {}
        assert sim._code_lines == {}

    def test_load_image_clears_cache(self):
        image = compile_source(W.chain_loop(10)).image()
        sim = Simulator(predecode=True)
        sim.load_image(image)
        sim.run()
        assert sim.compiled_blocks
        sim.load_image(image)
        assert sim.compiled_blocks == {}

    def test_runtime_stub_overwrite(self):
        """A store through an out-of-range array index overwrites the
        ``entry_code`` stub at PR_AREA+80; the next call must execute
        the damaged stub, as the reference does -- also when the stub
        was compiled before the store."""
        for calls in ("p;", "p; p; p;"):
            source = f"""program smc;
var a: array[1..10] of integer; i, k: integer;
procedure p;
begin
  k := k + 1
end;
begin
  k := 0;
  {calls}
  i := -1003;
  a[i] := 0;
  p;
  writeln(k)
end.
"""
            image = compile_source(source, checks=False).image()
            fast = _assert_lanes_agree(image)
            assert fast[0] == "error"
            assert fast[1] == "InvalidOpcodeError"
            assert fast[3]["pc"] == runtime.PR_AREA + runtime.OFF_ENTRY_CODE


class TestBlockCache:
    def test_one_byte_difference_never_reuses_a_block(self):
        """Image B differs from image A by one displacement byte of the
        loop's first instruction, at the same pc: B must never run the
        block compiled (and cached) for A."""
        def image(step):
            return _image([
                Instr("la", (R(3), Mem(step, 0, 3))),
                Instr("bct", (R(4), Mem(0, 0, CODE))),
            ])

        def setup(sim):
            sim.regs[4] = 6

        first, sim = _run(image(1), True, setup)
        assert BASE in sim.compiled_blocks and first[2][3] == 6
        second = _assert_lanes_agree(image(2), setup=setup)
        assert second[0] == "ok" and second[2][3] == 12


#: Programs for the damage runs, each a few hundred steps.
DAMAGE_PROGRAMS = {
    "loop": W.loop_kernel(30),
    "chain": W.chain_loop(10),
    "ladder": W.branch_ladder(12),
    "arrays": W.array_kernel(6),
}


class TestBlockStateDamage:
    @pytest.mark.parametrize("seed", range(8))
    def test_damage_between_chunks_changes_nothing(self, seed):
        """Run in random-length chunks, each ended by the step limit,
        and between chunks drop every compiled block, drop random
        blocks, reset the leader entry counters or clear the
        process-wide block cache: output, total steps and instruction
        counts equal the reference loop's."""
        rng = random.Random(seed)
        source = DAMAGE_PROGRAMS[rng.choice(sorted(DAMAGE_PROGRAMS))]
        image = compile_source(source).image()
        expected = _run_lane(image, False)[1]
        sim = Simulator()
        sim.load_image(image)
        steps = 0
        while True:
            assert steps < 20 * expected.steps
            chunk = rng.randint(1, 40)
            try:
                result = sim.run(max_steps=chunk)
            except StepLimitError:
                # Raised between instructions, so the next run resumes
                # exactly where this one stopped.
                steps += chunk
            else:
                steps += result.steps
                break
            op = rng.randrange(4)
            if op == 0:
                for pc in sorted(sim.compiled_blocks):
                    sim._forget(pc)
            elif op == 1 and sim.compiled_blocks:
                live = sorted(sim.compiled_blocks)
                for pc in rng.sample(live, rng.randint(1, len(live))):
                    sim._forget(pc)
            elif op == 2:
                sim._entries.clear()
            else:
                _compile_block.cache_clear()
        assert result.output == expected.output
        assert steps == expected.steps
        assert result.instruction_counts == expected.instruction_counts


class TestLaneSelection:
    def test_legacy_lane_never_populates_cache(self):
        compiled = compile_source(W.chain_loop(10))
        sim = Simulator(predecode=False)
        sim.load_image(compiled.image())
        result = sim.run()
        assert result.halted
        assert sim.compiled_blocks == {}

    def test_embedded_data_is_never_decoded(self):
        # Garbage after the halt is part of the text region but never
        # executed, so no block may cover it (an eager decoder would
        # fault on it).
        code = ENC.encode(Instr("lr", (R(1), R(1))))
        code += ENC.encode(Instr("svc", (Imm(isa.SVC_HALT),)))
        code += b"\xff\xff\xff\xff"  # not a valid instruction
        image = runtime.ExecutableImage(code=code, entry=0)
        fast = _assert_lanes_agree(image)
        assert fast[0] == "ok"

    def test_odd_pair_register_is_left_to_step(self):
        """A pair op naming an odd register ends the block before it:
        the reference raises its specification exception."""
        sim = Simulator()
        sim.load_image(_image([
            Instr("lr", (R(1), R(1))),
            Instr("srda", (R(3), Imm(1))),
            Instr("srda", (R(2), Imm(1))),
        ]))
        assert _block_end(sim.memory, BASE) == BASE + 2
        assert _block_end(sim.memory, BASE + 6) == BASE + 10

    def test_embedded_data_is_never_compiled(self):
        """Bytes between a halt and a hot branch target decode as valid
        instructions, but no compiled block may cover them."""
        code = b"".join(ENC.encode(i) for i in [
            Instr("la", (R(3), Mem(1, 0, 3))),           # 0
            Instr("bct", (R(4), Mem(16, 0, CODE))),      # 4
            Instr("svc", (Imm(isa.SVC_HALT),)),          # 8
        ])
        code += ENC.encode(Instr("lr", (R(5), R(3)))) * 3   # 10: data
        code += ENC.encode(Instr("bc", (Imm(15), Mem(0, 0, CODE))))  # 16
        image = runtime.ExecutableImage(code=code, entry=0)

        def setup(sim):
            sim.regs[4] = 6

        fast, sim = _run(image, True, setup)
        assert fast == _run_lane(image, False, setup)
        assert fast[0] == "ok" and fast[2][5] == 0
        assert sim.compiled_blocks == {BASE: BASE + 8, BASE + 16: BASE + 20}


#: Mnemonics for the random block sweep, by operand shape.
_RANDOM_RR = ("lr", "ltr", "lcr", "ar", "sr", "cr", "clr", "nr", "or",
              "xr", "mr", "dr")
_RANDOM_RX = ("l", "lh", "la", "st", "sth", "stc", "ic", "a", "ah", "s",
              "sh", "m", "mh", "d", "c", "ch", "cl", "n", "o", "x")
_RANDOM_SHIFTS = ("sla", "sra", "sll", "srl", "slda", "srda", "sldl", "srdl")
_RANDOM_PAIRS = {"mr", "dr", "m", "d", "slda", "srda", "sldl", "srdl"}


def _random_instr(rng, next_offset):
    """One random instruction the block compiler handles.  Data
    registers are r0-r9; r10 counts the loop; r11 addresses 400 bytes of
    random data, r12 the code itself (stores through it rewrite code)."""
    def reg(op=""):
        if op in _RANDOM_PAIRS and rng.random() < 0.93:
            return R(rng.choice((0, 2, 4, 6, 8)))
        return R(rng.randrange(10))

    kind = rng.random()
    if kind < 0.3:
        op = rng.choice(_RANDOM_RR)
        return Instr(op, (reg(op), reg()))
    if kind < 0.75:
        op = rng.choice(_RANDOM_RX)
        b = rng.choice((11, 11, 11, 11, 11, 0, 12, rng.randrange(1, 10)))
        d = rng.randrange(64 if b == 12 else 300)
        x = rng.randrange(10) if rng.random() < 0.1 else 0
        return Instr(op, (reg(op), Mem(d, x, b)))
    if kind < 0.87:
        op = rng.choice(_RANDOM_SHIFTS)
        b = rng.randrange(10) if rng.random() < 0.2 else 0
        return Instr(op, (reg(op), Mem(rng.randrange(64), 0, b)))
    if kind < 0.93:
        r1 = rng.randrange(10)
        r3 = rng.randrange(r1, 10)
        address = Mem(rng.randrange(200), 0, 11)
        return Instr(rng.choice(("stm", "lm")), (R(r1), R(r3), address))
    if kind < 0.97:
        # Either way the branch lands on the next instruction.
        return Instr("bc", (Imm(rng.randrange(16)), Mem(next_offset, 0, 12)))
    return Instr("bctr", (reg(), R(0)))


class TestRandomBlocks:
    def test_random_loops_match_reference(self):
        """Seeded random loop bodies over every instruction the block
        compiler handles -- random register values, CC, strict
        alignment and step limits, faulting addresses, odd pair
        registers and stores into the code -- must leave both lanes
        with the same outcome, registers, CC, pc and memory."""
        import random

        compiled = 0
        for seed in range(400):
            rng = random.Random(seed)
            instrs, offset = [], 0
            for _ in range(rng.randint(1, 14)):
                instrs.append(_random_instr(rng, offset + 4))
                offset += len(ENC.encode(instrs[-1]))
            instrs.append(Instr("bct", (R(10), Mem(0, 0, CODE))))
            data = bytes(rng.randrange(256) for _ in range(400))
            image = _image(instrs, data=data)
            values = [rng.choice((0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF,
                                  rng.getrandbits(32), rng.randrange(100),
                                  GLOBALS + rng.randrange(256)))
                      for _ in range(10)]
            values.append(rng.randint(2, 6))
            cc = rng.randrange(4)
            strict = rng.random() < 0.3
            limit = rng.choice((5000, rng.randint(1, 80)))

            def setup(sim):
                sim.regs[:11] = values
                sim.cc = cc

            fast, sim = _run(image, True, setup, strict, limit)
            memory = bytes(sim.memory)
            compiled += bool(sim.compiled_blocks)
            slow, sim = _run(image, False, setup, strict, limit)
            assert (fast, memory) == (slow, bytes(sim.memory)), seed
        assert compiled > 150  # about half the loops ran a compiled block
