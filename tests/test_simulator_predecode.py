"""Differential tests: predecoded dispatch vs. the reference loop.

The predecode cache (``predecode=True``, the only user-facing lane) must
be observationally identical to the decode-every-step reference loop
(``predecode=False``) on results, traps, step limits, alignment behavior
and self-modifying code -- its only permitted difference is speed.
"""

import pytest

from repro.bench import workloads as W
from repro.errors import (
    AlignmentFaultError,
    RegisterPairFaultError,
    SimulatorError,
)
from repro.core.codegen.emitter import Imm, Instr, Mem, R
from repro.machines.s370 import isa, runtime
from repro.machines.s370.encode import S370Encoder
from repro.machines.s370.simulator import Simulator
from repro.pascal.compiler import compile_source

ENC = S370Encoder()
BASE = runtime.MODULE_BASE


def _image(instrs, data=b""):
    code = b"".join(ENC.encode(i) for i in instrs)
    code += ENC.encode(Instr("svc", (Imm(isa.SVC_HALT),)))
    return runtime.ExecutableImage(code=code, entry=0, data=data)


def _run_lane(image, predecode, setup=None, strict_alignment=False,
              max_steps=2_000_000):
    """Run one lane; returns ('ok', result, regs, cc) or ('error', ...)."""
    sim = Simulator(strict_alignment=strict_alignment, predecode=predecode)
    sim.load_image(image)
    if setup:
        setup(sim)
    try:
        result = sim.run(max_steps=max_steps)
    except SimulatorError as error:
        return ("error", type(error).__name__, str(error),
                getattr(error, "psw", None))
    return ("ok", result, list(sim.regs), sim.cc)


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
            sim.memory[runtime.GLOBAL_AREA + 2:
                       runtime.GLOBAL_AREA + 6] = (77).to_bytes(4, "big")

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


class TestTraps:
    """Each way a run stops early stops both lanes at the same
    instruction, with the same PSW and registers."""

    def test_step_limit_trap_identical(self):
        instrs = [
            Instr("la", (R(3), Mem(1, 0, 3))),
            Instr("bc", (Imm(15), Mem(0, 0, runtime.R_CODE_BASE))),
        ]
        for limit in (7, 8, 9, 16, 17, 100):
            fast = _assert_lanes_agree(_image(instrs), max_steps=limit)
            assert fast[0] == "error"
            assert fast[1] == "StepLimitError"
            assert fast[3] is not None

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
            Instr("bct", (R(4), Mem(0, 0, runtime.R_CODE_BASE))),
            Instr("lr", (R(5), R(3))),
        ]

        def setup(sim):
            sim.regs[3] = 0
            sim.regs[4] = 5

        fast = _assert_lanes_agree(_image(instrs), setup=setup)
        assert fast[0] == "ok"
        assert fast[2][3] == 5 and fast[2][5] == 5


class TestSelfModifyingCode:
    def test_store_rewrites_future_iteration(self):
        """A loop that overwrites its own add with a subtract.

        Iteration 1 executes ``A`` (r3 += 10) and stores an ``S``
        encoding over it; iteration 2 must execute the new ``S``
        (r3 -= 10) in *both* lanes -- the fast lane only passes if the
        store invalidated the already-predecoded slot.
        """
        replacement = ENC.encode(
            Instr("s", (R(3), Mem(4, 0, runtime.R_GLOBAL_BASE)))
        )
        data = replacement + (10).to_bytes(4, "big")
        instrs = [
            # 0: load the replacement instruction word
            Instr("l", (R(6), Mem(0, 0, runtime.R_GLOBAL_BASE))),
            # 4: the loop target -- initially  A r3,=10
            Instr("a", (R(3), Mem(4, 0, runtime.R_GLOBAL_BASE))),
            # 8: overwrite offset 4 with the S encoding
            Instr("st", (R(6), Mem(4, 0, runtime.R_CODE_BASE))),
            # 12: loop twice
            Instr("bct", (R(4), Mem(4, 0, runtime.R_CODE_BASE))),
        ]

        def setup(sim):
            sim.regs[3] = 0
            sim.regs[4] = 2

        image = _image(instrs, data=data)
        fast = _assert_lanes_agree(image, setup=setup)
        assert fast[0] == "ok"
        assert fast[2][3] == 0  # +10 then -10, not +10 +10

    def test_store_outside_text_identical(self):
        """A store into plain data leaves the cache alone and the
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
        """A store drops exactly the overlapping predecoded slots."""
        instrs = [Instr("lr", (R(1), R(1))) for _ in range(5)]  # 2B each
        image = _image(instrs)
        sim = Simulator(predecode=True)
        sim.load_image(image)
        result = sim.run()
        assert result.halted
        expected = {BASE + off for off in (0, 2, 4, 6, 8, 10)}
        assert sim.decoded_pcs == expected

        # A word store over [BASE+4, BASE+8) kills the slots at +4 and
        # +6 -- and only those (the slot at +2 ends exactly at +4).
        sim.write_word(BASE + 4, 0)
        assert sim.decoded_pcs == expected - {BASE + 4, BASE + 6}

        # A byte store only kills the single covering slot.
        sim.write_byte(BASE + 9, 0)
        assert sim.decoded_pcs == expected - {
            BASE + 4, BASE + 6, BASE + 8
        }

        # Stores outside the text region leave the cache alone.
        sim.write_word(runtime.GLOBAL_AREA, 123)
        assert sim.decoded_pcs == expected - {
            BASE + 4, BASE + 6, BASE + 8
        }

    def test_load_image_clears_cache(self):
        image = _image([Instr("lr", (R(1), R(1)))])
        sim = Simulator(predecode=True)
        sim.load_image(image)
        sim.run()
        assert sim.decoded_pcs
        sim.load_image(image)
        assert sim.decoded_pcs == set()


class TestLaneSelection:
    def test_legacy_lane_never_populates_cache(self):
        compiled = compile_source(W.straightline(10, seed=2))
        sim = Simulator(predecode=False)
        sim.load_image(compiled.image())
        result = sim.run()
        assert result.halted
        assert sim.decoded_pcs == set()

    def test_embedded_data_is_never_decoded(self):
        # Lazy decode: a garbage word placed after the halt is part of
        # the text region but never executed, so it must never decode
        # (eager predecode would fault on it).
        code = ENC.encode(Instr("lr", (R(1), R(1))))
        code += ENC.encode(Instr("svc", (Imm(isa.SVC_HALT),)))
        code += b"\xff\xff\xff\xff"  # not a valid instruction
        image = runtime.ExecutableImage(code=code, entry=0)
        fast = _assert_lanes_agree(image)
        assert fast[0] == "ok"
