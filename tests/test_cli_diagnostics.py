"""Unit tests: the CLI and diagnostics reports."""

import pytest

from repro.cli import main
from repro.core.diagnostics import (
    conflict_report,
    error_density_by_symbol,
    grammar_report,
    summarize,
    table_report,
)
from repro.pascal.compiler import cached_build

PROGRAM = """
program clidemo;
var x: integer;
begin
  x := 6 * 7;
  writeln(x)
end.
"""

BAD_PROGRAM = "program broken; begin x := end."


@pytest.fixture()
def pas_file(tmp_path):
    path = tmp_path / "demo.pas"
    path.write_text(PROGRAM)
    return path


class TestCli:
    def test_run(self, pas_file, capsys):
        assert main(["run", str(pas_file)]) == 0
        assert capsys.readouterr().out == "42\n"

    def test_run_baseline(self, pas_file, capsys):
        assert main(["run", "--baseline", str(pas_file)]) == 0
        assert capsys.readouterr().out == "42\n"

    def test_run_baseline_with_checks_traps(self, tmp_path, capsys):
        path = tmp_path / "oob.pas"
        path.write_text(
            "program oob; var a: array[1..3] of integer; i: integer;\n"
            "begin i := 4; a[i] := 1; writeln('survived') end.\n"
        )
        assert main(["run", "--baseline", str(path)]) == 0
        assert capsys.readouterr().out == "survived\n"
        assert main(["run", "--baseline", "--checks", str(path)]) == 2
        assert "range check: overflow" in capsys.readouterr().err

    def test_run_minimal_variant(self, pas_file, capsys):
        assert main(["run", "--variant", "minimal", str(pas_file)]) == 0
        assert capsys.readouterr().out == "42\n"

    def test_interp(self, pas_file, capsys):
        assert main(["interp", str(pas_file)]) == 0
        assert capsys.readouterr().out == "42\n"

    def test_compile_stats_and_listing(self, pas_file, capsys):
        assert main(["compile", "--listing", str(pas_file)]) == 0
        out = capsys.readouterr().out
        assert "code_bytes" in out
        assert "svc" in out

    def test_compile_writes_object(self, pas_file, tmp_path, capsys):
        obj = tmp_path / "demo.obj"
        assert main(["compile", str(pas_file), "-o", str(obj)]) == 0
        blob = obj.read_bytes()
        assert len(blob) % 80 == 0
        from repro.machines.s370.objmod import read_object

        assert read_object(blob).name == "CLIDEMO"

    def test_tables(self, capsys):
        assert main(["tables", "--variant", "minimal"]) == 0
        out = capsys.readouterr().out
        assert "parse tables" in out
        assert "productions" in out

    def test_error_reporting(self, tmp_path, capsys):
        path = tmp_path / "bad.pas"
        path.write_text(BAD_PROGRAM)
        assert main(["run", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "compile", "interp"])
    def test_non_ascii_digit_is_a_typed_error(self, tmp_path, capsys,
                                              command):
        path = tmp_path / "digit.pas"
        path.write_text(
            "program d; var x: integer;\nbegin x := \u00b2 end.\n"
        )
        assert main([command, str(path)]) == 1
        err = capsys.readouterr().err
        assert "line 2: unexpected character '\u00b2'" in err
        assert "Traceback" not in err

    def test_trap_exit_code(self, tmp_path, capsys):
        path = tmp_path / "trap.pas"
        path.write_text(
            "program t; var a: array[1..3] of integer; i: integer;\n"
            "begin i := 9; a[i] := 1 end.\n"
        )
        assert main(["run", "--checks", str(path)]) == 2
        assert "trapped" in capsys.readouterr().err

    def test_spec_check(self, tmp_path, capsys):
        from repro.machines.s370.spec import spec_text

        path = tmp_path / "s370.spec"
        path.write_text(spec_text("minimal"))
        assert main(["spec-check", str(path)]) == 0
        assert "conflict" in capsys.readouterr().out

    def test_objdump(self, pas_file, tmp_path, capsys):
        obj = tmp_path / "demo.obj"
        assert main(["compile", str(pas_file), "-o", str(obj)]) == 0
        capsys.readouterr()
        assert main(["objdump", str(obj)]) == 0
        out = capsys.readouterr().out
        assert "module CLIDEMO" in out
        assert "svc" in out

    def test_spec_check_rejects_bad_spec(self, tmp_path, capsys):
        path = tmp_path / "bad.spec"
        path.write_text("$Operators\n foo\n$Productions\nr.1 ::= foo\n")
        assert main(["spec-check", str(path)]) == 1

    def test_lint_builtin_toy(self, capsys):
        assert main(["lint", "toy"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("speclint: toy (target t16)")
        assert "0 error(s)" in out

    def test_lint_json(self, capsys):
        import json

        assert main(["lint", "toy", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["summary"]["error"] == 0

    def test_lint_fail_on_info(self, capsys):
        # toy deliberately declares the unused `br` opcode -> SL023 info.
        assert main(["lint", "toy", "--fail-on", "info"]) == 1
        capsys.readouterr()

    def test_lint_missing_spec_reports_sl000(self, tmp_path, capsys):
        path = tmp_path / "broken.spec"
        path.write_text("$Operators\n foo\n$Productions\nr.1 ::= foo\n")
        assert main(["lint", str(path)]) == 1
        assert "SL000" in capsys.readouterr().out


class TestDiagnostics:
    def test_summarize_sections(self):
        report = summarize(cached_build("full"))
        for heading in ("specification", "parse tables",
                        "conflict resolution", "grammar"):
            assert heading in report

    def test_table_report_percentages(self):
        build = cached_build("full")
        report = table_report(build.tables)
        assert "shift" in report and "reduce" in report
        assert "%" in report

    def test_conflict_report_shows_winners(self):
        build = cached_build("full")
        report = conflict_report(build.sdts, build.conflicts)
        assert "reduce/reduce" in report
        assert "beats" in report

    def test_conflict_report_counts_match_records(self):
        build = cached_build("full")
        report = conflict_report(build.sdts, build.conflicts, limit=10_000)
        rr = sum(1 for c in build.conflicts if c.kind == "reduce/reduce")
        sr = sum(1 for c in build.conflicts if c.kind == "shift/reduce")
        assert f"{len(build.conflicts)} conflicts resolved" in report
        assert f"{sr} shift/reduce" in report
        assert f"{rr} reduce/reduce" in report
        # every winner line names a real production, via structured pids
        assert "::=" in report

    def test_conflict_record_structured_fields(self):
        """chosen_pid/rejected_pid agree with the rendered string API."""
        build = cached_build("full")
        rr = [c for c in build.conflicts if c.kind == "reduce/reduce"]
        sr = [c for c in build.conflicts if c.kind == "shift/reduce"]
        assert rr and sr
        for record in rr:
            assert record.chosen == f"reduce {record.chosen_pid}"
            assert record.rejected == f"reduce {record.rejected_pid}"
            # longer RHS wins; ties break toward the earlier declaration
            won = build.sdts.productions[record.chosen_pid]
            lost = build.sdts.productions[record.rejected_pid]
            assert (len(won.rhs), -won.pid) >= (len(lost.rhs), -lost.pid)
        for record in sr:
            assert record.chosen.startswith("shift")
            assert record.chosen_pid is None
            assert record.rejected_pid is not None

    def test_grammar_report_unused_section(self):
        build = cached_build("full")
        report = grammar_report(build.sdts)
        assert "declared but unused" in report
        # the deliberately-declared FP operators show up as unused
        assert "realword" in report

    def test_grammar_report_iadd_redundancy(self):
        build = cached_build("full")
        report = grammar_report(build.sdts)
        assert "iadd" in report

    def test_error_density(self):
        build = cached_build("full")
        density = error_density_by_symbol(build.tables)
        assert set(density) == set(build.tables.symbols)
        assert all(0.0 <= v <= 1.0 for v in density.values())
        # the end marker is mostly error (only statement boundaries)
        assert density["iadd"] < 1.0
