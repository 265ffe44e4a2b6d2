"""Simulator-lane agreement beyond the default build.

These cases began in the superinstruction-fusion suite.  Fusion is
gone; what they still guard is that the block engine matches the
decode-every-step reference loop (``predecode=False``) where
``test_simulator_predecode`` does not look: compiled workloads at every
optimisation level, and self-modifying code that rewrites a compiled
block through a halfword or a single-byte store.
"""

import pytest

from repro.bench import workloads as W
from repro.core.codegen.emitter import Imm, Instr, Mem, R
from repro.errors import SimulatorError
from repro.machines.s370 import isa, runtime
from repro.machines.s370.encode import S370Encoder
from repro.machines.s370.simulator import Simulator
from repro.pascal.compiler import compile_source

ENC = S370Encoder()

OPT_LEVELS = (0, 1, 2, 3, 4)


def _image(instrs, data=b""):
    code = b"".join(ENC.encode(i) for i in instrs)
    code += ENC.encode(Instr("svc", (Imm(isa.SVC_HALT),)))
    return runtime.ExecutableImage(code=code, entry=0, data=data)


def _run_lane(image, predecode, setup=None):
    sim = Simulator(predecode=predecode)
    sim.load_image(image)
    if setup:
        setup(sim)
    try:
        result = sim.run()
    except SimulatorError as error:
        return ("error", type(error).__name__, str(error),
                getattr(error, "psw", None))
    return ("ok", result, list(sim.regs), sim.cc)


def _assert_lanes_agree(image, setup=None):
    fast = _run_lane(image, True, setup)
    assert fast == _run_lane(image, False, setup)
    return fast


class TestWorkloadDifferential:
    @pytest.mark.parametrize(
        "source",
        [
            W.appendix1_equation(),
            W.appendix1_fragment(),
            W.straightline(40, seed=5),
            W.branch_ladder(25),
            W.array_kernel(10),
            W.loop_kernel(120),
        ],
        ids=["app1a", "app1b", "straight", "ladder", "arrays", "loop"],
    )
    def test_compiled_workloads_identical(self, source):
        """Blocks == reference at -O0..-O4: output, steps,
        instruction counts, registers, cc."""
        for level in OPT_LEVELS:
            image = compile_source(source, opt_level=level).image()
            fast = _assert_lanes_agree(image)
            assert fast[0] == "ok", level
            assert fast[1].halted and fast[1].trap is None, level


class TestSelfModifyingCode:
    def test_store_rewrites_future_iteration(self):
        """An inner loop over ``AR r3,r7`` runs three times -- compiled
        from its second pass -- before a store rewrites it; the outer
        loop then runs it again.  Once the store is a halfword
        ``SR r3,r7``, once a byte over the register field only
        (``AR r3,r8``).  The byte lands one past the block's start, so
        the block must be dropped by overlap, not by its address."""
        loop_top = 4

        def body(load, store):
            return [
                load,                                    # 0: r6 = patch
                Instr("ar", (R(3), R(7))),               # 4: inner loop
                Instr("bct", (R(4), Mem(loop_top, 0, runtime.R_CODE_BASE))),
                store,                                   # 10: patch it
                Instr("la", (R(4), Mem(3, 0, 0))),
                Instr("bct", (R(5), Mem(loop_top, 0, runtime.R_CODE_BASE))),
            ]

        def setup(sim):
            sim.regs[3] = 0
            sim.regs[4] = 3
            sim.regs[5] = 2
            sim.regs[7] = 10
            sim.regs[8] = 1

        halfword = body(
            Instr("lh", (R(6), Mem(0, 0, runtime.R_GLOBAL_BASE))),
            Instr("sth", (R(6), Mem(loop_top, 0, runtime.R_CODE_BASE))),
        )
        data = ENC.encode(Instr("sr", (R(3), R(7)))) + b"\x00\x00"
        fast = _assert_lanes_agree(_image(halfword, data=data), setup=setup)
        assert fast[0] == "ok"
        assert fast[2][3] == 0  # 3 x +10, then 3 x -10

        byte = body(
            Instr("la", (R(6), Mem(0x38, 0, 0))),
            Instr("stc", (R(6), Mem(loop_top + 1, 0, runtime.R_CODE_BASE))),
        )
        fast = _assert_lanes_agree(_image(byte), setup=setup)
        assert fast[0] == "ok"
        assert fast[2][3] == 33  # 3 x +10, then 3 x +1
