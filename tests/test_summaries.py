"""Tests: the -O4 lane -- interprocedural effect summaries,
call-boundary facts, and spill rematerialization.

Covers summary computation on real compiled routines (clobbers,
preserves, upward-exposed uses, linkage must-writes), conservative
degradation on recursion and synthetic mutual-recursion SCCs,
rematerialization classification (constant forms always,
register-dependent forms only while their inputs live, never across a
redefinition), the -O4 differential gate over the bench workloads, the
schema-tolerant ``--compare`` path, and the compiler/service plumbing
for ``opt_level=4``.  Optimizer failures are covered by
``test_degradation_contract``.
"""

from dataclasses import replace

import pytest

from repro.bench import workloads as W
from repro.bench.codequality import compare_reports
from repro.core.codegen.emitter import (
    BranchSite,
    CodeBuffer,
    Instr,
    LabelMark,
    Mem,
    R,
)
from repro.core.codegen.registers import SpillEvent
from repro.errors import BadRequestError
from repro.opt import dataflow as D
from repro.opt import spillplan
from repro.opt import summaries as S
from repro.opt.cfg import build_cfg
from repro.pascal.compiler import cached_build, compile_source

ENC = cached_build("full").machine.encoder

SIM_STEPS = 2_000_000

CALL_PROGRAM = """
program callone;
var g, h, s: integer;
procedure tally(x: integer);
begin
  s := s + x
end;
begin
  g := 3; h := 5; s := 0;
  tally(g + h);
  tally(g - h);
  writeln(s)
end.
"""

RECURSIVE_PROGRAM = """
program rec;
var n, r: integer;
procedure down(k: integer);
begin
  if k > 0 then down(k - 1);
  r := r + 1
end;
begin
  n := 4; r := 0;
  down(n);
  writeln(r)
end.
"""


def summaries_of(source):
    compiled = compile_source(source, opt_level=0)
    cfg = build_cfg(
        compiled.generated.buffer, ENC,
        disjoint_bases=ENC.disjoint_base_pairs(),
    )
    assert cfg.ok
    return S.compute_summaries(cfg, ENC), cfg


class TestSummaryComputation:
    def test_single_routine_refined(self):
        summary_set, _ = summaries_of(CALL_PROGRAM)
        assert summary_set.refined == 1
        assert summary_set.barriers == 0

    def test_clobbers_and_preserves(self):
        summary_set, _ = summaries_of(CALL_PROGRAM)
        (summary,) = summary_set.summaries.values()
        assert not summary.barrier
        # The linkage restores r2-r12 and the caller's r13; only the
        # scratch/linkage registers may come back changed.
        for reg in range(2, 14):
            assert reg in summary.preserved
            assert reg not in summary.clobbers
        assert 14 in summary.clobbers
        assert summary.clobbers <= {0, 1, 14, 15}

    def test_uses_are_upward_exposed_only(self):
        summary_set, _ = summaries_of(CALL_PROGRAM)
        (summary,) = summary_set.summaries.values()
        # The routine reads only through the dedicated bases (globals,
        # stack, procedure base); every working register it touches is
        # defined inside the routine first.
        assert summary.uses <= {10, 11, 13}

    def test_linkage_must_writes(self):
        summary_set, _ = summaries_of(CALL_PROGRAM)
        (summary,) = summary_set.summaries.values()
        assert (13, 0, 8, 60) in summary.must_writes
        assert (10, 0, 0, 4) in summary.must_writes

    def test_must_writes_subset_of_may(self):
        summary_set, _ = summaries_of(CALL_PROGRAM)
        for summary in summary_set.summaries.values():
            for loc in summary.must_writes:
                assert loc in summary.writes

    def test_render_is_printable(self):
        summary_set, _ = summaries_of(CALL_PROGRAM)
        text = S.render_summaries(summary_set)
        assert "clobbers" in text
        assert "must-writes" in text


class TestConservativeDegradation:
    def test_recursive_routine_barriers(self):
        summary_set, _ = summaries_of(RECURSIVE_PROGRAM)
        assert summary_set.refined == 0
        (summary,) = summary_set.summaries.values()
        assert summary.barrier
        assert "recursion" in summary.reason

    def test_recursive_program_O4_output_identical(self):
        reference = compile_source(RECURSIVE_PROGRAM, opt_level=0)
        optimized = compile_source(RECURSIVE_PROGRAM, opt_level=4)
        assert (
            optimized.run(max_steps=SIM_STEPS).output
            == reference.run(max_steps=SIM_STEPS).output
        )

    def test_mutual_recursion_scc_barriers(self):
        # The Pascal subset has no ``forward``, so a mutual-recursion
        # SCC is synthesized: splice a call to routine 3 (``work``)
        # into routine 1's (``tally``) body, closing the 3 -> 1 edge
        # into a cycle.  Routine 2 (``scale``) stays outside the SCC.
        compiled = compile_source(W.call_heavy(5), opt_level=0)
        items = list(compiled.generated.buffer.items)
        template = next(
            it for it in items
            if isinstance(it, BranchSite) and it.link_reg is not None
        )
        marks = {
            it.label: i for i, it in enumerate(items)
            if isinstance(it, LabelMark)
        }
        items.insert(marks[1] + 1, replace(template, label=3))
        buffer = CodeBuffer()
        buffer.items = items
        cfg = build_cfg(
            buffer, ENC, disjoint_bases=ENC.disjoint_base_pairs()
        )
        assert cfg.ok
        summary_set = S.compute_summaries(cfg, ENC)
        assert summary_set.summaries[1].barrier
        assert "recursion" in summary_set.summaries[1].reason
        assert summary_set.summaries[3].barrier
        assert "recursion" in summary_set.summaries[3].reason
        assert not summary_set.summaries[2].barrier

    def test_barrier_summary_refines_no_call_site(self):
        summary_set, cfg = summaries_of(RECURSIVE_PROGRAM)
        (summary,) = summary_set.summaries.values()
        site = next(
            it for it in cfg.buffer.items
            if isinstance(it, BranchSite) and it.link_reg is not None
        )
        assert S.call_site_effects(site, summary) is None
        assert S.apply_summaries(cfg, summary_set) == 0


def test_three_routine_call_graph_refines_every_routine():
    summary_set, _ = summaries_of(W.call_heavy(3))
    assert summary_set.refined == 3 and summary_set.barriers == 0


def _remat_fixture(items, victim, site, reads):
    buffer = CodeBuffer()
    buffer.items = list(items)
    cfg = build_cfg(buffer, ENC)
    assert cfg.ok
    exprs = D.available_exprs(cfg, ENC.expression_ops())
    event = SpillEvent(
        ordinal=0, guard_index=0, pool="even", cls_nt="R",
        victim=victim, store_index=site,
    )
    return spillplan._remat_form(cfg, exprs, event, reads)


class TestRematClassification:
    def test_constant_form_rematerializes(self):
        form = _remat_fixture(
            [
                Instr("la", (R(4), Mem(42, 0, 0))),
                Instr("l", (R(5), Mem(100, 0, 11))),
                Instr("ar", (R(5), R(4))),
            ],
            victim=4, site=1, reads=[2],
        )
        assert form == ("la", (42, 0, 0))

    def test_register_form_with_live_inputs(self):
        form = _remat_fixture(
            [
                Instr("la", (R(6), Mem(200, 0, 11))),
                Instr("la", (R(4), Mem(8, 0, 6))),
                Instr("l", (R(5), Mem(100, 0, 11))),
                Instr("ar", (R(5), R(4))),
            ],
            victim=4, site=2, reads=[3],
        )
        assert form == ("la", (8, 0, 6))

    def test_never_rematerialize_dead_inputs(self):
        # r6 (the form's base) is redefined between the spill site and
        # the reload: recomputing ``la r4,8(,6)`` there would produce a
        # different value, so the classifier must refuse.
        form = _remat_fixture(
            [
                Instr("la", (R(6), Mem(200, 0, 11))),
                Instr("la", (R(4), Mem(8, 0, 6))),
                Instr("l", (R(5), Mem(100, 0, 11))),
                Instr("la", (R(6), Mem(300, 0, 11))),
                Instr("ar", (R(5), R(4))),
            ],
            victim=4, site=2, reads=[4],
        )
        assert form is None

    def test_non_la_value_not_rematerialized(self):
        # A loaded value is not an address computation: memory may have
        # changed by the reload, so no remat form exists for it.
        form = _remat_fixture(
            [
                Instr("l", (R(4), Mem(100, 0, 11))),
                Instr("l", (R(5), Mem(104, 0, 11))),
                Instr("ar", (R(5), R(4))),
            ],
            victim=4, site=1, reads=[2],
        )
        assert form is None

    def test_remat_gated_to_O4(self):
        source = W.literal_pressure(22)
        o3 = compile_source(source, opt_level=3)
        o4 = compile_source(source, opt_level=4)
        assert o3.stats["regalloc"]["remat_count"] == 0
        assert o4.stats["regalloc"]["remat_count"] > 0

    def test_remat_eliminates_spill_stores(self):
        source = W.literal_pressure(22)
        o3 = compile_source(source, opt_level=3)
        o4 = compile_source(source, opt_level=4)
        assert o4.stats["regalloc"]["spill_stores"] == 0
        assert o3.stats["regalloc"]["spill_stores"] > 0
        assert (
            o4.run(max_steps=SIM_STEPS).output
            == o3.run(max_steps=SIM_STEPS).output
        )


class TestO4Differential:
    WORKLOADS = (
        ("call_heavy", W.call_heavy(10)),
        ("literal_pressure", W.literal_pressure(22)),
        ("register_pressure", W.register_pressure(20)),
        ("appendix1a", W.appendix1_equation()),
        ("loop_kernel", W.loop_kernel(100)),
        ("cse_workload", W.cse_workload(4)),
    )

    @pytest.mark.parametrize(
        "name,source", WORKLOADS, ids=[n for n, _ in WORKLOADS]
    )
    def test_output_identical_and_no_worse(self, name, source):
        o3 = compile_source(source, opt_level=3)
        o4 = compile_source(source, opt_level=4)
        r3 = o3.run(max_steps=SIM_STEPS)
        r4 = o4.run(max_steps=SIM_STEPS)
        assert r4.output == r3.output
        assert r4.steps <= r3.steps
        assert o4.stats["degraded"] == []

    def test_call_heavy_strictly_better(self):
        source = W.call_heavy(30)
        o3 = compile_source(source, opt_level=3)
        o4 = compile_source(source, opt_level=4)
        assert (
            o4.run(max_steps=SIM_STEPS).steps
            < o3.run(max_steps=SIM_STEPS).steps
        )
        assert o4.stats["global"]["summaries"]["routines"] > 0
        assert o4.stats["global"]["summaries"]["sites"] > 0

    def test_stats_expose_iterations_and_remats(self):
        compiled = compile_source(W.literal_pressure(22), opt_level=4)
        regalloc = compiled.stats["regalloc"]
        assert "iterations" in regalloc
        assert "remat_count" in regalloc
        assert regalloc["iterations"] >= 0


class TestCompareSchemaTolerance:
    @staticmethod
    def _entry(name, with_o4):
        lanes = {
            "table_O1": {"executed_instructions": 100},
            "table_O2": {"executed_instructions": 90},
            "table_O3": {
                "executed_instructions": 80,
                "code_bytes": 400,
                "spill_stores": 2,
            },
        }
        if with_o4:
            lanes["table_O4"] = {
                "executed_instructions": 70,
                "spill_stores": 0,
                "regalloc_iterations": 2,
                "remat_count": 3,
            }
        return {"workload": name, "lanes": lanes}

    def test_old_schema3_report_tolerated(self):
        old = {
            "git_rev": "old", "schema_version": 3,
            "workloads": [self._entry("w1", with_o4=False)],
        }
        new = {
            "git_rev": "new", "schema_version": 4,
            "workloads": [self._entry("w1", with_o4=True)],
        }
        table, regressions = compare_reports(old, new)
        assert regressions == []
        assert "(new)" in table

    def test_informational_fields_never_regress(self):
        old = {
            "git_rev": "a",
            "workloads": [self._entry("w1", with_o4=True)],
        }
        new_entry = self._entry("w1", with_o4=True)
        new_entry["lanes"]["table_O4"]["regalloc_iterations"] = 9
        new_entry["lanes"]["table_O4"]["remat_count"] = 9
        new = {"git_rev": "b", "workloads": [new_entry]}
        _, regressions = compare_reports(old, new)
        assert regressions == []

    def test_gated_fields_still_regress(self):
        old = {
            "git_rev": "a",
            "workloads": [self._entry("w1", with_o4=True)],
        }
        new_entry = self._entry("w1", with_o4=True)
        new_entry["lanes"]["table_O4"]["executed_instructions"] = 99
        new = {"git_rev": "b", "workloads": [new_entry]}
        _, regressions = compare_reports(old, new)
        assert len(regressions) == 1
        assert "O4 steps" in regressions[0]


class TestPlumbing:
    def test_service_accepts_O4(self):
        from repro.pipeline.service import ServiceRequest

        request = ServiceRequest(source=CALL_PROGRAM, opt_level=4)
        request.validate()  # must not raise

    def test_service_rejects_O5(self):
        from repro.pipeline.service import ServiceRequest

        request = ServiceRequest(source=CALL_PROGRAM, opt_level=5)
        with pytest.raises(BadRequestError):
            request.validate()