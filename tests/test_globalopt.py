"""Unit + integration tests: the -O2 global optimizer (repro.opt.globalopt).

One rewrite test and a does-not-fire negative per pass, the
unbuildable-CFG degradation, the toy-target instantiation, and the
integration gate: -O2 output is byte-identical
to -O1 on every code-quality workload while never executing more
instructions.
"""

import pytest

from repro.core.codegen.cse import CseManager
from repro.core.codegen.emitter import (
    BranchSite,
    CodeBuffer,
    DataBlock,
    Imm,
    Instr,
    LabelMark,
    Mem,
    R,
    SkipSite,
)
from repro.core.codegen.labels import LabelDictionary
from repro.core.codegen.parser_rt import GeneratedCode
from repro.machines.s370.spec import machine_description
from repro.opt.globalopt import ALL_PASSES, run_global

ENC = machine_description().encoder

MEM = Mem(100, 0, 13)
OTHER = Mem(200, 0, 13)
HALT = Instr("svc", (Imm(0),))


def make_code(items, deaths=()):
    buffer = CodeBuffer()
    buffer.items = list(items)
    buffer.deaths = list(deaths)
    labels = LabelDictionary()
    for item in buffer.items:
        if isinstance(item, LabelMark):
            labels.define(item.label)
        elif isinstance(item, BranchSite):
            labels.reference(item.label)
    return GeneratedCode(buffer=buffer, labels=labels, cse=CseManager())


def ops(code):
    out = []
    for item in code.buffer.items:
        if isinstance(item, Instr):
            out.append(item.opcode)
        elif isinstance(item, BranchSite):
            out.append("branch")
        elif isinstance(item, SkipSite):
            out.append("skip")
        elif isinstance(item, LabelMark):
            out.append(f"L{item.label}")
        elif item is not None:
            out.append(type(item).__name__)
    return out


class TestUnreachable:
    def test_block_behind_unconditional_branch_deleted(self):
        code = make_code([
            BranchSite(cond=15, label=1, index_reg=0),
            Instr("ar", (R(2), R(3))),
            Instr("lr", (R(4), R(2))),
            LabelMark(1),
            HALT,
        ])
        result = run_global(code, ENC)
        assert result.hits["g_unreachable"] == 2
        assert "ar" not in ops(code) and "lr" not in ops(code)

    def test_data_bearing_block_kept(self):
        code = make_code([
            BranchSite(cond=15, label=1, index_reg=0),
            DataBlock(data=b"\x00\x00\x00\x2a"),
            LabelMark(1),
            HALT,
        ])
        result = run_global(code, ENC)
        assert result.hits["g_unreachable"] == 0
        assert "DataBlock" in ops(code)

    def test_call_target_not_deleted(self):
        code = make_code([
            BranchSite(cond=15, label=1, index_reg=0, link_reg=14),
            LabelMark(1),
            HALT,
        ])
        result = run_global(code, ENC)
        assert result.hits["g_unreachable"] == 0


class TestForwarding:
    def test_reload_of_same_register_deleted(self):
        code = make_code([
            Instr("st", (R(3), MEM)),
            BranchSite(cond=15, label=1, index_reg=0),
            LabelMark(1),
            Instr("l", (R(3), MEM)),
            Instr("lr", (R(1), R(3))),
            Instr("svc", (Imm(1),)),
            HALT,
        ])
        result = run_global(code, ENC)
        assert result.hits["g_forward_elim"] == 1
        assert ops(code).count("l") == 0

    def test_reload_into_other_register_becomes_move(self):
        code = make_code([
            Instr("st", (R(3), MEM)),
            BranchSite(cond=15, label=1, index_reg=0),
            LabelMark(1),
            Instr("l", (R(5), MEM)),
            Instr("lr", (R(1), R(5))),
            Instr("lr", (R(2), R(3))),
            Instr("svc", (Imm(6),)),
            HALT,
        ])
        result = run_global(code, ENC)
        assert result.hits["g_forward_copy"] == 1

    def test_no_fire_when_one_path_lacks_the_store(self):
        code = make_code([
            Instr("ltr", (R(1), R(1))),
            BranchSite(cond=8, label=1, index_reg=0),
            Instr("st", (R(3), MEM)),          # only the fallthrough path
            LabelMark(1),
            Instr("l", (R(3), MEM)),
            Instr("lr", (R(1), R(3))),
            Instr("svc", (Imm(1),)),
            HALT,
        ])
        result = run_global(code, ENC)
        assert result.hits["g_forward_elim"] == 0
        assert result.hits["g_forward_copy"] == 0

    def test_no_fire_across_aliasing_store(self):
        code = make_code([
            Instr("st", (R(3), MEM)),
            Instr("st", (R(4), OTHER)),
            Instr("l", (R(3), MEM)),
            Instr("lr", (R(1), R(3))),
            Instr("lr", (R(2), R(4))),
            Instr("svc", (Imm(6),)),
            HALT,
        ])
        # OTHER and MEM are provably disjoint full words: still fires.
        result = run_global(code, ENC)
        assert result.hits["g_forward_elim"] == 1


class TestCopyElim:
    def test_redundant_move_deleted(self):
        code = make_code([
            Instr("lr", (R(5), R(4))),
            Instr("lr", (R(5), R(4))),   # provably equal already
            Instr("ar", (R(6), R(5))),
            Instr("ar", (R(6), R(4))),
            Instr("lr", (R(1), R(6))),
            Instr("svc", (Imm(1),)),
            HALT,
        ])
        result = run_global(code, ENC)
        assert result.hits["g_copy_elim"] >= 1

    def test_ltr_folds_to_copy_source(self):
        code = make_code([
            Instr("lr", (R(5), R(4))),
            Instr("ltr", (R(5), R(5))),
            BranchSite(cond=8, label=1, index_reg=0),
            Instr("ar", (R(4), R(4))),
            LabelMark(1),
            HALT,
        ])
        result = run_global(code, ENC)
        assert result.hits["g_test_fold"] == 1
        # The ltr now tests r4, so the lr to r5 is dead; the ar feeding
        # nothing past the halt is dead too.  With the ar gone the branch
        # falls through, so neither the ltr's CC nor its r4 is read.
        assert result.hits["g_dead_def"] == 3
        assert "lr" not in ops(code)
        assert "ltr" not in ops(code)


class TestDeadCode:
    def test_compare_with_dead_cc_is_left_alone(self):
        # Compares define no register, so the dead-def pass never takes
        # them, even when nothing reads their condition code.
        code = make_code([
            Instr("cr", (R(1), R(2))),
            LabelMark(1),
            Instr("ar", (R(3), R(3))),  # join overwrites the CC
            Instr("lr", (R(1), R(3))),
            Instr("svc", (Imm(1),)),
            HALT,
        ])
        result = run_global(code, ENC)
        assert result.total == 0
        assert "cr" in ops(code)

    def test_compare_kept_when_branch_reads(self):
        # The branch skips real work, so it cannot be turned into a
        # fallthrough and the compare's CC stays observably live.
        code = make_code([
            Instr("cr", (R(1), R(2))),
            BranchSite(cond=8, label=1, index_reg=0),
            Instr("lr", (R(1), R(2))),
            Instr("svc", (Imm(1),)),
            LabelMark(1),
            HALT,
        ])
        run_global(code, ENC)
        assert "cr" in ops(code)

    def test_dead_def_deleted(self):
        code = make_code([
            Instr("la", (R(3), Mem(7, 0, 0))),
            HALT,
        ])
        result = run_global(code, ENC)
        assert result.hits["g_dead_def"] == 1
        assert "la" not in ops(code)

    def test_trapping_divide_never_deleted(self):
        code = make_code([
            Instr("dr", (R(4), R(7))),  # result pair dead, but may trap
            HALT,
        ])
        result = run_global(code, ENC)
        assert "dr" in ops(code)

    def test_dead_store_before_halt_deleted(self):
        code = make_code([
            Instr("st", (R(3), MEM)),
            HALT,
        ])
        result = run_global(code, ENC)
        assert result.hits["g_dead_store"] == 1
        assert "st" not in ops(code)

    def test_store_kept_when_read_later(self):
        # Clobbering r3 kills the (MEM, r3) availability fact, so the
        # load cannot be forwarded away and the store stays live.
        code = make_code([
            Instr("st", (R(3), MEM)),
            Instr("la", (R(3), Mem(9, 0, 0))),
            Instr("l", (R(1), MEM)),
            Instr("ar", (R(1), R(3))),
            Instr("svc", (Imm(1),)),
            HALT,
        ])
        result = run_global(code, ENC)
        assert result.hits["g_dead_store"] == 0
        assert "st" in ops(code) and "l" in ops(code)

    def test_store_kept_on_exit_path(self):
        # Falling off the end is an unknown successor: nothing deletable.
        code = make_code([Instr("st", (R(3), MEM))])
        result = run_global(code, ENC)
        assert result.hits["g_dead_store"] == 0

    def test_svc_write_is_observable(self):
        # WRITE_INT consumes r1 and touches the output stream: neither
        # the svc nor the la feeding it may be deleted.
        code = make_code([
            Instr("la", (R(1), Mem(42, 0, 0))),
            Instr("svc", (Imm(1),)),
            HALT,
        ])
        result = run_global(code, ENC)
        assert ops(code) == ["la", "svc", "svc"]


class TestBranches:
    def test_branch_over_branch_flipped(self):
        code = make_code([
            Instr("ltr", (R(1), R(1))),
            BranchSite(cond=8, label=1, index_reg=0),
            BranchSite(cond=15, label=2, index_reg=0),
            LabelMark(1),
            HALT,
            LabelMark(2),
            HALT,
        ])
        result = run_global(code, ENC)
        assert result.hits["g_branch_flip"] == 1
        sites = [x for x in code.buffer.items if isinstance(x, BranchSite)]
        assert len(sites) == 1
        assert sites[0].cond == 15 ^ 8
        assert sites[0].label == 2

    def test_no_flip_when_label_lands_between(self):
        code = make_code([
            Instr("ltr", (R(1), R(1))),
            BranchSite(cond=8, label=1, index_reg=0),
            LabelMark(3),                     # side entry between the two
            BranchSite(cond=15, label=2, index_reg=0),
            LabelMark(1),
            Instr("ltr", (R(2), R(2))),
            BranchSite(cond=7, label=3, index_reg=0),
            LabelMark(2),
            HALT,
        ])
        result = run_global(code, ENC)
        assert result.hits["g_branch_flip"] == 0

    def test_conditional_fallthrough_deleted(self):
        code = make_code([
            Instr("ltr", (R(1), R(1))),
            BranchSite(cond=8, label=1, index_reg=0),
            LabelMark(1),
            HALT,
        ])
        result = run_global(code, ENC)
        assert result.hits["g_fallthrough"] == 1
        assert "branch" not in ops(code)


class TestSkipSpans:
    def test_span_items_never_deleted(self):
        code = make_code([
            SkipSite(cond=8, halfwords=2, index_reg=0),
            Instr("la", (R(9), Mem(1, 0, 0))),  # dead, but in the span
            HALT,
        ])
        result = run_global(code, ENC)
        assert "la" in ops(code)


class TestDegradation:
    def test_bad_cfg_degrades_without_rewrites(self):
        code = make_code([
            BranchSite(cond=15, label=42, index_reg=0),  # undefined label
            Instr("la", (R(3), Mem(7, 0, 0))),
            HALT,
        ])
        result = run_global(code, ENC)
        assert result.total == 0
        assert "L42" in result.degraded_reason


class TestToyTarget:
    def test_toy_dead_def_and_dse(self):
        from repro.machines.toy.machine import ToyEncoder

        code = make_code([
            Instr("ldi", (R(3), Imm(7))),
            Instr("st", (R(3), Mem(4, 0, 6))),
            Instr("ldi", (R(1), Imm(9))),
            Instr("out", (R(1),)),
            Instr("halt", ()),
        ])
        result = run_global(
            code, ToyEncoder(), nregs=8, load_op="ld", move_op="mov"
        )
        assert result.hits["g_dead_store"] == 1   # store before halt
        assert result.hits["g_dead_def"] == 1     # ldi r3 now dead
        assert ops(code) == ["ldi", "out", "halt"]

    def test_toy_forwarding(self):
        from repro.machines.toy.machine import ToyEncoder

        # Both loads precede any ``out`` -- its writes=(None,) output
        # stream effect soundly kills every available-store fact.
        code = make_code([
            Instr("ldi", (R(3), Imm(7))),
            Instr("st", (R(3), Mem(4, 0, 6))),
            Instr("ld", (R(5), Mem(4, 0, 6))),
            Instr("ld", (R(1), Mem(4, 0, 6))),
            Instr("out", (R(5),)),
            Instr("out", (R(1),)),
            Instr("halt", ()),
        ])
        result = run_global(
            code, ToyEncoder(), nregs=8, load_op="ld", move_op="mov"
        )
        assert result.hits["g_forward_copy"] == 2
        assert "ld" not in ops(code)

    def test_out_stream_blocks_forwarding(self):
        from repro.machines.toy.machine import ToyEncoder

        code = make_code([
            Instr("ldi", (R(3), Imm(7))),
            Instr("st", (R(3), Mem(4, 0, 6))),
            Instr("out", (R(3),)),
            Instr("ld", (R(1), Mem(4, 0, 6))),
            Instr("out", (R(1),)),
            Instr("halt", ()),
        ])
        result = run_global(
            code, ToyEncoder(), nregs=8, load_op="ld", move_op="mov"
        )
        assert result.hits["g_forward_copy"] == 0
        assert result.hits["g_forward_elim"] == 0
        assert "ld" in ops(code) and "st" in ops(code)


class TestIntegration:
    def test_o2_output_identical_and_never_slower(self):
        from repro.bench.codequality import quality_workloads
        from repro.pascal.compiler import compile_source

        strictly_lower = 0
        for name, source in quality_workloads():
            o1 = compile_source(source, opt_level=1)
            o2 = compile_source(source, opt_level=2)
            r1, r2 = o1.run(), o2.run()
            assert r1.output == r2.output, name
            assert r1.halted and r2.halted, name
            assert r2.steps <= r1.steps, name
            assert not o2.stats["global"]["degraded_reason"], name
            if r2.steps < r1.steps:
                strictly_lower += 1
        assert strictly_lower >= 2

    def test_stats_shape(self):
        from repro.pascal.compiler import compile_source

        compiled = compile_source(
            "program p; var x: integer; begin x := 1; writeln(x) end.",
            opt_level=2,
        )
        stats = compiled.stats["global"]
        assert set(stats) == {"total", "iterations", "hits",
                              "degraded_reason", "summaries"}
        assert set(stats["hits"]) == set(ALL_PASSES)
        assert set(stats["summaries"]) == {"routines", "sites"}
