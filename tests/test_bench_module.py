"""Unit tests: the evaluation-harness support package (repro.bench)."""

import json
import shutil
import subprocess
from pathlib import Path

import pytest

from repro.bench.metrics import (
    idiom_counts,
    loc_inventory,
    register_reuse_distance,
    routines_per_second,
    steps_per_second,
)
from repro.bench.speed import (
    SCHEMA_VERSION,
    _git_rev,
    validate_report,
    write_report,
)
from repro.bench.workloads import (
    appendix1_equation,
    appendix1_fragment,
    array_kernel,
    batch_programs,
    branch_ladder,
    cse_workload,
    expression_chain,
    loop_kernel,
    straightline,
)
from repro.pipeline.profile import PHASES
from repro.core.codegen.emitter import Imm, Instr, Mem, R
from repro.pascal import compile_source, interpret_source


class TestReuseDistance:
    def test_no_reuse_is_zero(self):
        instrs = [Instr("l", (R(1), Mem(0, 0, 13)))]
        assert register_reuse_distance(instrs) == 0.0

    def test_back_to_back_reuse(self):
        instrs = [
            Instr("l", (R(1), Mem(0, 0, 13))),
            Instr("l", (R(1), Mem(4, 0, 13))),
        ]
        assert register_reuse_distance(instrs) == 1.0

    def test_spread_reuse(self):
        instrs = [
            Instr("l", (R(1), Mem(0, 0, 13))),
            Instr("l", (R(2), Mem(4, 0, 13))),
            Instr("l", (R(3), Mem(8, 0, 13))),
            Instr("l", (R(1), Mem(12, 0, 13))),
        ]
        assert register_reuse_distance(instrs) == 3.0

    def test_reads_do_not_count_as_writes(self):
        instrs = [
            Instr("l", (R(1), Mem(0, 0, 13))),
            Instr("st", (R(1), Mem(4, 0, 13))),   # read of r1
            Instr("l", (R(1), Mem(8, 0, 13))),    # second write
        ]
        assert register_reuse_distance(instrs) == 2.0


class TestIdiomCounts:
    def test_counts_from_real_listing(self):
        compiled = compile_source(appendix1_equation(), optimize=False)
        counts = idiom_counts(compiled.listing())
        assert counts["sla"] >= 5
        assert counts["st"] >= 1
        assert "EQU" not in counts

    def test_ignores_non_instruction_lines(self):
        counts = idiom_counts(
            "000000                   L1 EQU *\n"
            "000000  5810D000         l     r1,0(,13)\n"
        )
        assert counts == {"l": 1}


class TestLocInventory:
    def test_covers_packages(self):
        inventory = loc_inventory()
        for package in ("core", "ir", "pascal", "machines", "baseline"):
            assert inventory.get(package, 0) > 100

    def test_counts_are_positive_ints(self):
        for value in loc_inventory().values():
            assert isinstance(value, int) and value > 0


class TestWorkloads:
    @pytest.mark.parametrize(
        "factory",
        [
            appendix1_equation,
            appendix1_fragment,
            lambda: straightline(10),
            lambda: expression_chain(5),
            lambda: branch_ladder(8),
            lambda: array_kernel(8),
            lambda: cse_workload(3),
            lambda: loop_kernel(40),
        ],
    )
    def test_workloads_compile_and_agree(self, factory):
        source = factory()
        expected = interpret_source(source)
        result = compile_source(source).run()
        assert result.trap is None
        assert result.output == expected

    def test_straightline_scales(self):
        small = compile_source(straightline(5)).stats["code_bytes"]
        large = compile_source(straightline(50)).stats["code_bytes"]
        assert large > small * 3

    def test_branch_ladder_counts_branches(self):
        compiled = compile_source(branch_ladder(10))
        total = (
            compiled.module.short_branches + compiled.module.long_branches
        )
        assert total == 20  # two branches per rung

    def test_cse_workload_has_cses(self):
        compiled = compile_source(cse_workload(4), optimize=True)
        assert compiled.cse_count >= 1
        uses = sum(
            1 for t in compiled.tokens if t.symbol == "use_common"
        )
        # (a*b+c) recurs twice per statement across four statements:
        # one make_common plus at least six use_commons.
        assert uses >= 6

    def test_loop_kernel_executes_many_steps(self):
        result = compile_source(loop_kernel(200)).run()
        assert result.trap is None
        assert result.steps > 2000  # a loop, not straight line

    def test_batch_programs_are_named_and_distinct(self):
        programs = batch_programs(count=4, assignments=10)
        names = [name for name, _ in programs]
        assert len(set(names)) == 4
        sources = [source for _, source in programs]
        assert len(set(sources)) == 4


class TestThroughputHelpers:
    def test_steps_per_second(self):
        assert steps_per_second(1000, 2.0) == 500.0
        assert steps_per_second(1000, 0.0) == 0.0

    def test_routines_per_second(self):
        assert routines_per_second(30, 10.0) == 3.0
        assert routines_per_second(30, 0.0) == 0.0


def _lane(rate_key):
    return {
        "median_s": 0.1,
        "min_s": 0.09,
        "samples_s": [0.1],
        rate_key: 100.0,
    }


def _valid_report():
    """The smallest report validate_report accepts (schema 8)."""
    return {
        "schema_version": SCHEMA_VERSION,
        "git_rev": "abc1234",
        "timestamp": "2026-01-01T00:00:00",
        "machine": {},
        "codegen": {
            "reference": _lane("tokens_per_s"),
            "tiered": _lane("tokens_per_s"),
            "compressed": _lane("tokens_per_s"),
            "speedup_tiered_vs_reference": 1.7,
            "tiered_first_call_s": 0.05,
            "lanes_identical": True,
        },
        "table_build": {},
        "build_cache": {"warm_automaton_builds": 0},
        "simulator": {
            "blocks": _lane("steps_per_s"),
            "reference": _lane("steps_per_s"),
            "speedup_blocks_vs_reference": 2.0,
            "lanes_identical": True,
        },
        "end_to_end": {
            "phases": {phase: 0.001 for phase in PHASES},
            "batch": {
                "serial_routines_per_s": 10.0,
                "parallel_routines_per_s": 12.0,
                "parallel_cold_wall_s": 0.5,
                "speedup_parallel_vs_serial": 1.2,
                "outputs_identical": True,
                "parallel_mode": "parallel",
                "pool_reused": True,
                "worker_builds": {"automaton_builds": 0},
            },
        },
    }


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_git_rev_marks_uncommitted_source(tmp_path):
    """A report measured on edited, uncommitted ``src/`` files says so;
    untracked files and edits outside ``src/`` do not count."""
    def git(*args):
        subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            cwd=tmp_path, check=True, capture_output=True,
        )

    src = tmp_path / "src"
    src.mkdir()
    (src / "mod.py").write_text("x = 1\n")
    (tmp_path / "notes.md").write_text("a\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "c")
    clean = _git_rev(src)
    assert clean != "unknown" and not clean.endswith("+dirty")
    (src / "new.py").write_text("y = 2\n")
    (tmp_path / "notes.md").write_text("b\n")
    assert _git_rev(src) == clean
    (src / "mod.py").write_text("x = 2\n")
    assert _git_rev(src) == clean + "+dirty"


class TestSchemaValidation:
    def test_valid_report_has_no_problems(self):
        assert validate_report(_valid_report()) == []

    def test_old_schema_version_rejected(self):
        report = _valid_report()
        report["schema_version"] = 1
        assert any("schema_version" in p for p in validate_report(report))

    def test_missing_simulator_lane_rejected(self):
        report = _valid_report()
        del report["simulator"]["reference"]
        assert any("reference" in p for p in validate_report(report))
        report = _valid_report()
        del report["simulator"]["speedup_blocks_vs_reference"]
        assert any(
            "speedup_blocks_vs_reference" in p
            for p in validate_report(report)
        )

    def test_diverged_lanes_rejected(self):
        report = _valid_report()
        report["simulator"]["lanes_identical"] = False
        assert any("lanes_identical" in p for p in validate_report(report))

    def test_missing_tiered_lane_rejected(self):
        report = _valid_report()
        del report["codegen"]["tiered"]
        assert any("tiered" in p for p in validate_report(report))
        report = _valid_report()
        del report["codegen"]["speedup_tiered_vs_reference"]
        assert any(
            "speedup_tiered_vs_reference" in p
            for p in validate_report(report)
        )

    def test_diverged_codegen_lanes_rejected(self):
        report = _valid_report()
        report["codegen"]["lanes_identical"] = False
        assert any(
            "codegen.lanes_identical" in p for p in validate_report(report)
        )

    def test_frozen_history_accepted(self):
        report = _valid_report()
        report["history"] = {
            "624b11e": {"codegen.legacy_string.tokens_per_s": 56368}
        }
        assert validate_report(report) == []
        report["history"] = ["not", "an", "object"]
        assert any("history" in p for p in validate_report(report))

    def test_missing_phase_rejected(self):
        report = _valid_report()
        del report["end_to_end"]["phases"]["select"]
        assert any("select" in p for p in validate_report(report))

    def test_worker_table_builds_rejected(self):
        report = _valid_report()
        report["end_to_end"]["batch"]["worker_builds"][
            "automaton_builds"
        ] = 2
        assert any("automaton_builds" in p for p in validate_report(report))

    def test_batch_divergence_rejected(self):
        report = _valid_report()
        report["end_to_end"]["batch"]["outputs_identical"] = False
        assert any(
            "outputs_identical" in p for p in validate_report(report)
        )

    def test_missing_pool_reused_rejected(self):
        report = _valid_report()
        del report["end_to_end"]["batch"]["pool_reused"]
        assert any("pool_reused" in p for p in validate_report(report))

    def test_parallel_without_pool_reuse_rejected(self):
        report = _valid_report()
        report["end_to_end"]["batch"]["pool_reused"] = False
        assert any(
            "persistent pool" in p for p in validate_report(report)
        )

    def test_single_core_serial_mode_accepted(self):
        report = _valid_report()
        report["end_to_end"]["batch"]["parallel_mode"] = "serial"
        report["end_to_end"]["batch"]["pool_reused"] = False
        assert validate_report(report) == []

    def test_skipped_parallel_lane_accepted(self):
        report = _valid_report()
        report["end_to_end"]["batch"] = {
            "serial_routines_per_s": 10.0,
            "parallel_skipped": "single-core host (cpu_count=1)",
        }
        assert validate_report(report) == []

    def test_skipped_parallel_lane_needs_a_reason(self):
        report = _valid_report()
        report["end_to_end"]["batch"] = {
            "serial_routines_per_s": 10.0,
            "parallel_skipped": "",
        }
        assert any("parallel_skipped" in p for p in validate_report(report))

    def test_unskipped_parallel_lane_needs_timings(self):
        report = _valid_report()
        del report["end_to_end"]["batch"]["parallel_routines_per_s"]
        assert any(
            "parallel_routines_per_s" in p for p in validate_report(report)
        )


class TestSpeedReport:
    def test_write_report_keeps_frozen_history(self, tmp_path):
        path = tmp_path / "BENCH_speed.json"
        path.write_text(json.dumps(
            {"history": {"624b11e": {"x": 1}}, "schema_version": 5}
        ))
        write_report(_valid_report(), path)
        written = json.loads(path.read_text())
        assert written["schema_version"] == SCHEMA_VERSION
        assert written["history"] == {"624b11e": {"x": 1}}

    def test_single_core_host_skips_parallel_lane(self, monkeypatch):
        from repro.bench import speed

        monkeypatch.setattr(speed.os, "cpu_count", lambda: 1)
        batch = speed.measure_end_to_end(iterations=1)["batch"]
        assert "cpu_count=1" in batch["parallel_skipped"]
        assert "parallel_routines_per_s" not in batch
        assert batch["serial_routines_per_s"] > 0

    def test_committed_report_is_valid(self):
        path = Path(__file__).resolve().parent.parent / "BENCH_speed.json"
        report = json.loads(path.read_text())
        assert validate_report(report) == []
        frozen = report["history"]["624b11e"]
        assert frozen["codegen.legacy_string.tokens_per_s"] == 56368
        assert frozen["simulator.fused.steps_per_s"] == 1311114
        assert frozen["simulator.speedup_fused_vs_predecode"] == 1.083
        assert frozen["simulator.predecoded.steps_per_s"] == 1210351


class TestDebugMarkers:
    def test_listing_annotated_with_source_lines(self):
        source = (
            "program d; var x: integer;\n"
            "begin\n  x := 1;\n  writeln(x)\nend.\n"
        )
        compiled = compile_source(source, debug=True)
        listing = compiled.listing()
        assert "* source line 3" in listing
        assert "* source line 4" in listing

    def test_markers_cost_no_code(self):
        source = (
            "program d; var x: integer;\n"
            "begin\n  x := 1;\n  writeln(x)\nend.\n"
        )
        plain = compile_source(source, debug=False)
        debug = compile_source(source, debug=True)
        assert plain.stats["code_bytes"] == debug.stats["code_bytes"]
        assert plain.run().output == debug.run().output

    def test_statement_map_in_stats(self):
        source = (
            "program d; var x: integer;\n"
            "begin\n  x := 1;\n  writeln(x)\nend.\n"
        )
        compiled = compile_source(source, debug=True)
        statements = compiled.generated.stats["statements"]
        assert 3 in statements and 4 in statements
        assert statements[3] <= statements[4]
