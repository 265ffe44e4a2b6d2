"""Unit + integration tests: the S/370 peephole optimizer (repro.opt).

Every rule gets a dedicated rewrite test and a does-not-fire negative;
the safety machinery (death facts, skip-span protection, CC liveness)
gets its own negatives; and the integration section proves the -O1
default never changes program output while measurably shrinking the
executed instruction count.  Every peephole rule and global pass must
also fire on at least one named program.
"""

import functools
import itertools
import json

import pytest

from repro.core.codegen.cse import CseManager
from repro.core.codegen.emitter import (
    BranchSite,
    CodeBuffer,
    Imm,
    Instr,
    LabelMark,
    Mem,
    R,
    SkipSite,
    StmtMark,
)
from repro.core.codegen.labels import LabelDictionary
from repro.core.codegen.parser_rt import GeneratedCode
from repro.errors import CodeGenError
from repro.opt import ALL_RULES, run_peephole

MEM = Mem(100, 0, 13)
OTHER = Mem(200, 0, 13)


def make_code(items, deaths=()):
    """A synthetic GeneratedCode around a raw item list."""
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
    """Post-peephole opcode sequence (compact() already dropped Nones)."""
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
    return out


class TestStoreLoad:
    def test_same_register_reload_deleted(self):
        code = make_code([
            Instr("st", (R(1), MEM)),
            Instr("ar", (R(4), R(5))),
            Instr("l", (R(1), MEM)),
        ])
        result = run_peephole(code, rules=["store_load"])
        assert result.hits["store_load"] == 1
        assert ops(code) == ["st", "ar"]

    def test_same_register_delete_consumes_death(self):
        # r1's death inside the (st, l] window would otherwise claim the
        # forwarded value is unread.
        code = make_code(
            [Instr("st", (R(1), MEM)), Instr("l", (R(1), MEM))],
            deaths=[(1, 1)],
        )
        run_peephole(code, rules=["store_load"])
        assert code.buffer.deaths == []

    def test_cross_register_forwarding_renames_span(self):
        code = make_code(
            [
                Instr("st", (R(1), MEM)),
                Instr("l", (R(2), MEM)),
                Instr("ar", (R(3), R(2))),
            ],
            deaths=[(1, 1), (3, 2)],
        )
        result = run_peephole(code, rules=["store_load"])
        assert result.hits["store_load"] == 1
        assert ops(code) == ["st", "ar"]
        # Every use of r2 in its live span now reads r1 directly...
        assert code.buffer.items[1].operands == (R(3), R(1))
        # ...and r2's death fact was transferred to r1 (index remapped
        # by compact: the tombstoned load shifted everything down one).
        assert code.buffer.deaths == [(2, 1)]

    def test_no_fire_without_death_of_stored_register(self):
        # r1 stays live past the load: forwarding would let the rename
        # span read a register that still carries an unrelated value.
        code = make_code(
            [
                Instr("st", (R(1), MEM)),
                Instr("l", (R(2), MEM)),
                Instr("ar", (R(3), R(2))),
            ],
            deaths=[(3, 2)],
        )
        result = run_peephole(code, rules=["store_load"])
        assert result.total == 0
        assert ops(code) == ["st", "l", "ar"]

    def test_no_fire_across_aliasing_store(self):
        code = make_code([
            Instr("st", (R(1), MEM)),
            Instr("st", (R(4), MEM)),
            Instr("l", (R(1), MEM)),
        ])
        assert run_peephole(code, rules=["store_load"]).total == 0

    def test_no_fire_across_barrier(self):
        code = make_code([
            Instr("st", (R(1), MEM)),
            Instr("svc", (Imm(1),)),
            Instr("l", (R(1), MEM)),
        ])
        assert run_peephole(code, rules=["store_load"]).total == 0


class TestLoadLoad:
    def test_same_register_duplicate_deleted(self):
        code = make_code([
            Instr("l", (R(1), MEM)),
            Instr("l", (R(1), MEM)),
        ])
        result = run_peephole(code, rules=["load_load"])
        assert result.hits["load_load"] == 1
        assert ops(code) == ["l"]

    def test_different_register_becomes_rr_move(self):
        code = make_code([
            Instr("l", (R(1), MEM)),
            Instr("l", (R(2), MEM)),
        ])
        result = run_peephole(code, rules=["load_load"])
        assert result.hits["load_load"] == 1
        assert ops(code) == ["l", "lr"]
        assert code.buffer.items[1].operands == (R(2), R(1))

    def test_no_fire_when_first_register_died(self):
        # LR would read a register the allocator already reassigned.
        code = make_code(
            [Instr("l", (R(1), MEM)), Instr("l", (R(2), MEM))],
            deaths=[(1, 1)],
        )
        assert run_peephole(code, rules=["load_load"]).total == 0
        assert ops(code) == ["l", "l"]

    def test_no_fire_on_different_addresses(self):
        code = make_code([
            Instr("l", (R(1), MEM)),
            Instr("l", (R(2), OTHER)),
        ])
        assert run_peephole(code, rules=["load_load"]).total == 0


class TestHomeLocationMap:
    """One forward sweep: associations last until an effect kills them,
    not for a fixed window."""

    def test_store_forwards_past_any_distance(self):
        filler = [Instr("ar", (R(4), R(5))) for _ in range(40)]
        code = make_code(
            [Instr("st", (R(1), MEM)), *filler,
             Instr("l", (R(2), MEM)), Instr("ar", (R(3), R(2)))],
            deaths=[(1, 1), (43, 2)],
        )
        result = run_peephole(code, rules=["store_load"])
        assert result.hits["store_load"] == 1
        assert code.buffer.items[-1].operands == (R(3), R(1))

    def test_load_copies_a_live_earlier_load(self):
        code = make_code([
            Instr("l", (R(1), MEM)),
            Instr("ar", (R(4), R(5))),
            Instr("l", (R(2), MEM)),
        ])
        result = run_peephole(code, rules=["load_load"])
        assert result.hits["load_load"] == 1
        assert ops(code) == ["l", "ar", "lr"]

    def test_redefined_address_register_kills_the_entry(self):
        code = make_code([
            Instr("l", (R(1), MEM)),
            Instr("la", (R(13), Mem(8, 0, 13))),
            Instr("l", (R(2), MEM)),
        ])
        assert run_peephole(code, rules=["load_load"]).total == 0

    def test_label_clears_the_map(self):
        code = make_code([
            Instr("l", (R(1), MEM)),
            LabelMark(1),
            Instr("l", (R(1), MEM)),
        ])
        assert run_peephole(code, rules=["load_load"]).total == 0

    def test_load_inside_a_skip_span_records_nothing(self):
        # The skip may hop over the first load: r1 need not hold m.
        code = make_code([
            SkipSite(cond=8, halfwords=2, index_reg=0),
            Instr("l", (R(1), MEM)),
            Instr("l", (R(2), MEM)),
        ])
        assert run_peephole(code, rules=["load_load"]).total == 0

    def test_one_pass(self):
        code = make_code([
            Instr("st", (R(1), MEM)),
            Instr("l", (R(1), MEM)),
            BranchSite(cond=15, label=9, index_reg=0),
            LabelMark(9),
        ])
        assert run_peephole(code).iterations == 1


class TestZeroClear:
    def test_la_zero_becomes_sr(self):
        code = make_code([Instr("la", (R(5), Mem(0, 0, 0)))])
        result = run_peephole(code, rules=["zero_clear"])
        assert result.hits["zero_clear"] == 1
        [instr] = code.buffer.items
        assert (instr.opcode, instr.operands) == ("sr", (R(5), R(5)))

    def test_no_fire_when_cc_is_live(self):
        # SR sets the condition code; a pending branch would read it.
        code = make_code([
            Instr("c", (R(1), MEM)),
            Instr("la", (R(5), Mem(0, 0, 0))),
            BranchSite(cond=8, label=1, index_reg=0),
            LabelMark(1),
        ])
        assert run_peephole(code, rules=["zero_clear"]).total == 0
        assert ops(code) == ["c", "la", "branch", "L1"]


class TestBranchChain:
    def test_retargets_through_unconditional_branch(self):
        code = make_code([
            BranchSite(cond=8, label=1, index_reg=0),
            Instr("ar", (R(1), R(2))),
            LabelMark(1),
            BranchSite(cond=15, label=2, index_reg=0),
            LabelMark(2),
        ])
        result = run_peephole(code, rules=["branch_chain"])
        assert result.hits["branch_chain"] == 1
        assert code.buffer.items[0].label == 2
        assert 2 in code.labels.referenced

    def test_no_fire_on_self_loop(self):
        code = make_code([
            LabelMark(1),
            BranchSite(cond=15, label=1, index_reg=0),
        ])
        assert run_peephole(code, rules=["branch_chain"]).total == 0
        assert code.buffer.items[1].label == 1


class TestFallthroughBranch:
    def test_branch_to_next_location_deleted(self):
        code = make_code([
            BranchSite(cond=15, label=3, index_reg=0),
            LabelMark(3),
            Instr("ar", (R(1), R(2))),
        ])
        result = run_peephole(code, rules=["fallthrough_branch"])
        assert result.hits["fallthrough_branch"] == 1
        assert ops(code) == ["L3", "ar"]

    def test_no_fire_on_conditional_branch(self):
        # A conditional fallthrough still encodes the CC decision.
        code = make_code([
            Instr("c", (R(1), MEM)),
            BranchSite(cond=8, label=3, index_reg=0),
            LabelMark(3),
        ])
        assert run_peephole(code, rules=["fallthrough_branch"]).total == 0
        assert ops(code) == ["c", "branch", "L3"]


class TestDeadCcTest:
    """The CC-liveness scan, seen through ``zero_clear``: LA leaves the
    condition code alone, SR sets it, so the rewrite needs a dead CC."""

    def test_no_fire_when_branch_reads_cc(self):
        code = make_code([
            Instr("la", (R(5), Mem(0, 0, 0))),
            BranchSite(cond=8, label=1, index_reg=0),
            LabelMark(1),
        ])
        assert run_peephole(code, rules=["zero_clear"]).total == 0
        assert ops(code) == ["la", "branch", "L1"]

    def test_fires_across_label_when_join_overwrites(self):
        # Regression: the CC scan used to stop at every label even
        # though whichever path reaches the join, a reader past it can
        # only observe *this* CC when control came from here -- and the
        # join overwrites the CC before any read.
        code = make_code([
            Instr("la", (R(5), Mem(0, 0, 0))),
            LabelMark(4),
            Instr("ar", (R(2), R(3))),  # sets the CC at the join
        ])
        result = run_peephole(code, rules=["zero_clear"])
        assert result.hits["zero_clear"] == 1
        assert ops(code) == ["sr", "L4", "ar"]

    def test_fires_through_unconditional_branch(self):
        # Regression: the scan used to give up at *every* BranchSite;
        # an unconditional branch has a single successor, so the scan
        # now continues at its target.
        code = make_code([
            Instr("la", (R(5), Mem(0, 0, 0))),
            BranchSite(cond=15, label=7, index_reg=0),
            LabelMark(7),
            Instr("ar", (R(1), R(2))),  # overwrites the CC at the target
        ])
        result = run_peephole(code, rules=["zero_clear"])
        assert result.hits["zero_clear"] == 1
        assert ops(code) == ["sr", "branch", "L7", "ar"]

    def test_no_fire_through_branch_when_target_reads(self):
        code = make_code([
            Instr("la", (R(5), Mem(0, 0, 0))),
            BranchSite(cond=15, label=7, index_reg=0),
            LabelMark(7),
            BranchSite(cond=8, label=9, index_reg=0),  # reads the CC
            LabelMark(9),
        ])
        assert run_peephole(code, rules=["zero_clear"]).total == 0

    def test_branch_cycle_without_reader_fires(self):
        # An unconditional cycle never reads the CC: SR is safe.
        code = make_code([
            Instr("la", (R(5), Mem(0, 0, 0))),
            LabelMark(2),
            Instr("lr", (R(3), R(4))),
            BranchSite(cond=15, label=2, index_reg=0),
        ])
        result = run_peephole(code, rules=["zero_clear"])
        assert result.hits["zero_clear"] == 1

    def test_skip_site_other_than_never_is_a_reader(self):
        code = make_code([
            Instr("la", (R(5), Mem(0, 0, 0))),
            SkipSite(cond=15, halfwords=2, index_reg=0),
            Instr("ar", (R(1), R(2))),
        ])
        assert run_peephole(code, rules=["zero_clear"]).total == 0


class TestSkipProtection:
    """Items inside a SkipSite's fixed byte span may not change size."""

    def test_duplicate_load_not_deleted_under_skip(self):
        code = make_code([
            SkipSite(cond=8, halfwords=4, index_reg=0),
            Instr("l", (R(1), MEM)),
            Instr("l", (R(1), MEM)),
        ])
        assert run_peephole(code, rules=["load_load"]).total == 0
        assert ops(code) == ["skip", "l", "l"]

    def test_zero_clear_not_resized_under_skip(self):
        # LA (4 bytes) -> SR (2 bytes) would shrink the skipped window.
        code = make_code([
            SkipSite(cond=8, halfwords=2, index_reg=0),
            Instr("la", (R(5), Mem(0, 0, 0))),
        ])
        assert run_peephole(code, rules=["zero_clear"]).total == 0
        assert code.buffer.items[1].opcode == "la"

    def test_same_rewrite_fires_outside_the_span(self):
        # The protected span is exactly 2*halfwords bytes: the LA after
        # the covered one is fair game again.
        code = make_code([
            SkipSite(cond=8, halfwords=2, index_reg=0),
            Instr("la", (R(5), Mem(0, 0, 13))),
            Instr("la", (R(3), Mem(0, 0, 0))),
        ])
        result = run_peephole(code, rules=["zero_clear"])
        assert result.hits["zero_clear"] == 1
        assert ops(code) == ["skip", "la", "sr"]


class TestEngine:
    def test_unknown_rule_rejected(self):
        code = make_code([])
        with pytest.raises(CodeGenError, match="unknown peephole rules"):
            run_peephole(code, rules=["store_load", "mystery"])

    def test_disabled_rules_do_not_fire(self):
        code = make_code([
            Instr("la", (R(3), Mem(0, 0, 0))),
            Instr("l", (R(1), MEM)),
            Instr("l", (R(1), MEM)),
        ])
        result = run_peephole(code, rules=["load_load"])
        assert result.hits["zero_clear"] == 0
        assert result.hits["load_load"] == 1
        assert ops(code) == ["la", "l"]

    def test_as_dict_covers_every_rule(self):
        code = make_code([Instr("la", (R(3), Mem(0, 0, 0)))])
        stats = run_peephole(code).as_dict()
        assert set(stats) == {"total", "iterations", "hits"}
        assert set(stats["hits"]) == set(ALL_RULES)
        assert stats["total"] == sum(stats["hits"].values())

    def test_compact_remaps_surviving_deaths(self):
        code = make_code(
            [
                Instr("l", (R(3), MEM)),
                Instr("l", (R(3), MEM)),  # deleted
                Instr("ar", (R(1), R(2))),
            ],
            deaths=[(3, 1)],
        )
        run_peephole(code, rules=["load_load"])
        assert code.buffer.deaths == [(2, 1)]

    def test_rules_compose_to_fixpoint(self):
        # load_load's LR(r2,r2) output... never happens; instead check
        # store_load exposing a fallthrough: delete the load, then the
        # branch over nothing collapses on a later pass.
        code = make_code([
            Instr("st", (R(1), MEM)),
            Instr("l", (R(1), MEM)),
            BranchSite(cond=15, label=9, index_reg=0),
            LabelMark(9),
        ])
        result = run_peephole(code)
        assert result.hits["store_load"] == 1
        assert result.hits["fallthrough_branch"] == 1
        assert ops(code) == ["st", "L9"]


# ---------------------------------------------------------------------------
# Integration: the real compiler at -O0 vs -O1.
# ---------------------------------------------------------------------------


def _compile(source, **kwargs):
    from repro.pascal.compiler import compile_source

    return compile_source(source, **kwargs)


class TestCompilerIntegration:
    @pytest.mark.parametrize(
        "workload",
        ["appendix1_equation", "loop_kernel", "chain_loop", "array_kernel"],
    )
    def test_o1_output_identical_to_o0(self, workload):
        from repro.bench import workloads as W

        factory = getattr(W, workload)
        source = factory() if workload == "appendix1_equation" \
            else factory(24)
        r0 = _compile(source, opt_level=0).run()
        r1 = _compile(source, opt_level=1).run()
        assert r0.halted and r1.halted
        assert r1.output == r0.output
        assert r1.steps <= r0.steps

    def test_chain_loop_meets_ten_percent_reduction(self):
        from repro.bench.workloads import chain_loop

        source = chain_loop(400)
        r0 = _compile(source, opt_level=0).run()
        r1 = _compile(source, opt_level=1).run()
        assert r1.output == r0.output
        assert (r0.steps - r1.steps) / r0.steps >= 0.10

    def test_stats_record_opt_level_and_hits(self):
        from repro.bench.workloads import chain_loop

        compiled = _compile(chain_loop(10), opt_level=1)
        assert compiled.stats["opt_level"] == 1
        peep = compiled.stats["peephole"]
        assert peep["total"] > 0
        assert set(peep["hits"]) == set(ALL_RULES)

        off = _compile(chain_loop(10), opt_level=0)
        assert off.stats["opt_level"] == 0
        assert off.stats["peephole"]["total"] == 0

    def test_profiler_reports_peephole_phase(self):
        from repro.pipeline.profile import PhaseProfiler

        profiler = PhaseProfiler()
        _compile("program p; begin writeln(1) end.", profiler=profiler)
        assert "peephole" in profiler.as_dict()

    def test_trace_collects_dump_asm_material(self):
        from repro.bench.workloads import chain_loop

        compiled = _compile(chain_loop(10), peephole_trace=True)
        assert compiled.asm_before is not None
        assert compiled.asm_after is not None
        assert compiled.peephole_events
        rendered = compiled.peephole_events[0].render()
        assert rendered.startswith("[")  # "[rule] @idx: before -> after"

    def test_rule_subset_on_compiled_code(self):
        from repro.bench.workloads import chain_loop

        compiled = _compile(chain_loop(10), opt_level=0)
        peep = run_peephole(compiled.generated, rules=["zero_clear"])
        hits = peep.as_dict()["hits"]
        assert set(hits) == set(ALL_RULES)
        assert all(
            count == 0 for rule, count in hits.items() if rule != "zero_clear"
        )


#: Every subset of the rules, the empty set and all five included.
RULE_SUBSETS = [
    subset
    for size in range(len(ALL_RULES) + 1)
    for subset in itertools.combinations(ALL_RULES, size)
]


def _subset_programs():
    from repro.bench.workloads import array_kernel
    from repro.robustness.faultinject import CHAOS_PROGRAM

    # Between them, load_load, store_load and zero_clear all fire.
    return {"chaos": CHAOS_PROGRAM, "array_kernel": array_kernel(12)}


@functools.lru_cache(maxsize=None)
def _output_at_O0(name):
    return _compile(_subset_programs()[name], opt_level=0).run().output


@pytest.mark.parametrize("rules", RULE_SUBSETS, ids="+".join)
@pytest.mark.parametrize("name", ["chaos", "array_kernel"])
def test_any_rule_subset_preserves_output(name, rules):
    """Each rule is individually toggleable, so any subset of them must
    leave the program's behaviour alone."""
    from dataclasses import replace

    from repro.core.codegen.loader_records import resolve_module
    from repro.pascal.compiler import cached_build

    compiled = _compile(_subset_programs()[name], opt_level=0)
    run_peephole(compiled.generated, rules=rules)
    module = resolve_module(
        compiled.generated, cached_build().machine,
        entry_label=compiled.ir.main_label,
    )
    result = replace(compiled, module=module).run()
    assert result.trap is None
    assert result.output == _output_at_O0(name)


# ---------------------------------------------------------------------------
# Every rewrite pays: each peephole rule and global pass fires on a program.
# ---------------------------------------------------------------------------


#: rewrite -> (program, opt level) on which it fires.
FIRES_ON = {
    "branch_chain": ("random_program(0)", 1),
    "fallthrough_branch": ("random_rich_program(0)", 1),
    "store_load": ("appendix1_equation", 1),
    "zero_clear": ("appendix1_fragment", 1),
    "load_load": ("array_kernel(12)", 1),
    "g_unreachable": ("random_program(1)", 2),
    "g_branch_flip": ("random_program(47)", 2),
    "g_fallthrough": ("random_program(164)", 2),
    "g_forward_copy": ("appendix1_fragment", 2),
    "g_forward_elim": ("straightline(60)", 2),
    "g_copy_elim": ("straightline(60)", 2),
    "g_dead_def": ("straightline(60)", 2),
    "g_dead_store": ("straightline(60)", 2),
    "g_test_fold": ("branch_ladder(40)", 3),
    "g_cse_elim": ("appendix1_equation", 3),
    "g_cse_copy": ("appendix1_equation", 3),
}


@functools.lru_cache(maxsize=None)
def _fires_stats(program, level):
    from helpers import random_program, random_rich_program
    from repro.bench import workloads as W

    sources = {
        "random_program(0)": lambda: random_program(0),
        "random_program(1)": lambda: random_program(1),
        "random_program(47)": lambda: random_program(47),
        "random_program(164)": lambda: random_program(164),
        "random_rich_program(0)": lambda: random_rich_program(0),
        "appendix1_equation": W.appendix1_equation,
        "appendix1_fragment": W.appendix1_fragment,
        "array_kernel(12)": lambda: W.array_kernel(12),
        "straightline(60)": lambda: W.straightline(60, seed=3),
        "branch_ladder(40)": lambda: W.branch_ladder(40),
    }
    return _compile(sources[program](), opt_level=level).stats


class TestEveryRewriteFires:
    """A rewrite no program triggers is dead weight: each one named in
    the rule and pass tables must fire on its program here."""

    def test_table_covers_every_rewrite(self):
        from repro.opt.globalopt import ALL_PASSES

        assert set(FIRES_ON) == set(ALL_RULES) | set(ALL_PASSES)

    @pytest.mark.parametrize("rewrite", sorted(FIRES_ON))
    def test_fires(self, rewrite):
        stats = _fires_stats(*FIRES_ON[rewrite])
        table = "global" if rewrite.startswith("g_") else "peephole"
        assert stats[table]["hits"][rewrite] > 0


# ---------------------------------------------------------------------------
# Scaling: per-run bookkeeping stays linear in the code it reads.
# ---------------------------------------------------------------------------


class TestLinearBookkeeping:
    """Counts, not clocks: the instruction-fact computations and label-map
    builds one run performs, on straight-line programs of two sizes."""

    def _counts(self, monkeypatch, assignments):
        from repro.bench.workloads import straightline
        from repro.machines.s370 import effects as s370_effects
        from repro.opt import cfg, peephole

        generated = _compile(straightline(assignments), opt_level=0).generated
        calls = {
            "instr_effects": 0,
            "label_maps": 0,
            "instructions": sum(
                isinstance(item, Instr) for item in generated.buffer.items
            ),
        }
        real_effects = s370_effects.instr_effects
        real_labels = peephole._label_positions

        def counting_effects(instr):
            calls["instr_effects"] += 1
            return real_effects(instr)

        def counting_labels(items):
            calls["label_maps"] += 1
            return real_labels(items)

        # A fresh shared effects memo, so the count covers this run only.
        monkeypatch.setattr(cfg, "_EFFECTS_MEMO", {})
        monkeypatch.setattr(s370_effects, "instr_effects", counting_effects)
        monkeypatch.setattr(peephole, "_label_positions", counting_labels)
        result = run_peephole(generated)
        monkeypatch.undo()
        assert result.total > 0
        return calls

    def test_fact_computations_grow_at_most_linearly(self, monkeypatch):
        small = self._counts(monkeypatch, 200)
        large = self._counts(monkeypatch, 400)
        assert small["instr_effects"] > 0
        assert large["instr_effects"] <= 2.3 * small["instr_effects"]
        # Memoized: never more than one per selected instruction, however
        # many rules ask.
        assert large["instr_effects"] <= large["instructions"]

    def test_one_label_map_per_run(self, monkeypatch):
        for assignments in (200, 400):
            assert self._counts(monkeypatch, assignments)["label_maps"] == 1
