"""Unit tests: the speclint static analyzer (repro.analysis)."""

import json
from pathlib import Path

import pytest

from repro.analysis import (
    CODES,
    JSON_VERSION,
    Diagnostic,
    LintReport,
    chain_productions,
    check_chain_loops,
    check_templates,
    render_expected,
    run_lint,
    severity_rank,
)
from repro.cli import main
from repro.core.cogg import build_code_generator
from repro.core.machine import simple_machine
from repro.core.speclang.semops import BindMode, SemopInfo
from repro.errors import CodeGenBlockedError
from repro.ir.linear import IFToken
from repro.pascal.compiler import cached_build

FIXTURES = Path(__file__).parent / "fixtures" / "speclint"

#: fixture name -> (extra CLI args, expected exit code, codes it must raise)
FIXTURE_CASES = {
    "blocking": ([], 0, {"SL001", "SL021"}),
    "chainloop": ([], 1, {"SL010", "SL021"}),
    "shadowed": ([], 0, {"SL020", "SL021", "SL022", "SL024"}),
    "badtemplate": (
        ["--target", "toy"],
        1,
        {"SL020", "SL023", "SL024", "SL030", "SL031", "SL032", "SL033"},
    ),
    "peepidiom": ([], 0, {"SL040"}),
    "noindexslot": (["--target", "s370"], 1, {"SL035"}),
}


def _build_fixture(name: str):
    text = (FIXTURES / f"{name}.spec").read_text()
    return build_code_generator(text, simple_machine("testmachine"))


class TestFixtures:
    @pytest.mark.parametrize("name", sorted(FIXTURE_CASES))
    def test_golden_output(self, name, capsys):
        extra, exit_code, _codes = FIXTURE_CASES[name]
        path = FIXTURES / f"{name}.spec"
        assert main(["lint", str(path), *extra]) == exit_code
        out = capsys.readouterr().out.replace(str(path), path.name)
        assert out == (FIXTURES / f"{name}.golden").read_text()

    @pytest.mark.parametrize("name", sorted(FIXTURE_CASES))
    def test_intended_codes(self, name, capsys):
        """Each defective fixture triggers exactly its intended codes."""
        extra, _exit, codes = FIXTURE_CASES[name]
        path = FIXTURES / f"{name}.spec"
        main(["lint", str(path), "--json", *extra])
        report = LintReport.from_json(capsys.readouterr().out)
        assert set(report.codes()) == codes

    @pytest.mark.parametrize("name", sorted(FIXTURE_CASES))
    def test_fail_on_info_trips(self, name, capsys):
        extra, _exit, _codes = FIXTURE_CASES[name]
        path = FIXTURES / f"{name}.spec"
        assert main(["lint", str(path), "--fail-on", "info", *extra]) == 1
        capsys.readouterr()


class TestShippedSpecs:
    """Acceptance: `lint` reports zero errors on every shipped spec."""

    @pytest.mark.parametrize("variant", ["minimal", "medium", "full"])
    def test_s370_has_no_errors(self, variant):
        report = run_lint(cached_build(variant), spec_name=f"s370:{variant}")
        assert report.counts()["error"] == 0

    def test_toy_has_no_errors(self):
        from repro.machines.toy.spec import build_toy

        report = run_lint(build_toy(), spec_name="toy")
        assert report.counts()["error"] == 0

    def test_builtin_specs_via_cli(self, capsys):
        assert main(["lint", "toy"]) == 0
        assert main(["lint", "s370:minimal"]) == 0
        out = capsys.readouterr().out
        assert "speclint: toy (target t16)" in out
        assert "speclint: s370:minimal (target s370)" in out


class TestBlockingAnalysis:
    def test_static_and_runtime_reports_agree(self):
        """SL001 predicts the exact state the runtime error blocks in,
        and both render the expected symbols with the same phrase."""
        build = _build_fixture("blocking")
        report = run_lint(build, spec_name="blocking")
        [diag] = [d for d in report.diagnostics if d.code == "SL001"]
        assert diag.severity == "warning"
        assert "operators mark_a" in diag.message
        assert diag.data["rejected_survives"] is True

        tokens = [
            IFToken("pick"),
            IFToken("load"),
            IFToken("x", 1),
            IFToken("mark_b"),
        ]
        with pytest.raises(CodeGenBlockedError) as info:
            build.code_generator.generate(tokens)
        assert info.value.state == diag.data["blocked_state"]
        assert "operators mark_a" in str(info.value)
        assert info.value.expected == ["mark_a"]

    def test_no_false_positive_without_conflicts(self):
        """A spec whose only reductions are unambiguous raises no SL001."""
        text = (FIXTURES / "chainloop.spec").read_text()
        build = build_code_generator(text, simple_machine("testmachine"))
        report = run_lint(build, spec_name="chainloop")
        assert "SL001" not in report.codes()


class TestChainLoops:
    def test_cycle_found_once(self):
        build = _build_fixture("chainloop")
        diags = check_chain_loops(build.sdts)
        assert [d.code for d in diags] == ["SL010"]
        assert diags[0].severity == "error"
        assert diags[0].data["cycle"] == ["r", "s"]

    def test_chain_productions_listed(self):
        build = _build_fixture("chainloop")
        chains = chain_productions(build.sdts)
        assert sorted((p.lhs, p.rhs[0]) for p in chains) == [
            ("r", "s"),
            ("s", "r"),
        ]

    def test_clean_grammar_has_no_cycles(self):
        build = _build_fixture("blocking")
        assert check_chain_loops(build.sdts) == []


class TestTemplatePass:
    def test_sl034_machine_semop_without_handler(self):
        """A semop that typechecks (extra signature) but has no runtime
        handler is exactly the defect SL034 reports."""
        text = """\
$Non-terminals
 r = register

$Terminals
 x = value

$Operators
 load, use

$Constants
 using, frob

$Productions
r.1 ::= load x.1
 using r.1
lambda ::= use r.1
 frob r.1
"""
        frob = SemopInfo(
            name="frob",
            bind_mode=BindMode.USES,
            min_operands=1,
            max_operands=1,
            doc="test-only semop with no handler",
        )
        build = build_code_generator(
            text, simple_machine("testmachine"), extra_semops=[frob]
        )
        diags = check_templates(build.sdts, build.machine)
        assert [d.code for d in diags] == ["SL034"]
        assert "frob" in diags[0].message

    def test_registered_handler_suppresses_sl034(self):
        machine = simple_machine("testmachine")
        machine.semop_handlers["frob"] = lambda ctx, operands: None
        frob = SemopInfo(
            name="frob",
            bind_mode=BindMode.USES,
            min_operands=1,
            max_operands=1,
        )
        text = (
            "$Non-terminals\n r = register\n\n$Terminals\n x = value\n\n"
            "$Operators\n load, use\n\n$Constants\n using, frob\n\n"
            "$Productions\n"
            "r.1 ::= load x.1\n using r.1\n"
            "lambda ::= use r.1\n frob r.1\n"
        )
        build = build_code_generator(text, machine, extra_semops=[frob])
        assert check_templates(build.sdts, build.machine) == []


class TestExpectedRendering:
    def test_dead_state_phrase(self):
        build = _build_fixture("blocking")
        assert render_expected(build.sdts, []) == "nothing -- dead state"

    def test_groups_by_role(self):
        build = _build_fixture("blocking")
        text = render_expected(build.sdts, ["pick", "x", "r", "__end__"])
        assert "operators pick" in text
        assert "terminals x" in text
        assert "register classes r" in text
        assert "markers __end__" in text


class TestJsonSchema:
    def test_roundtrip_is_exact(self):
        build = _build_fixture("shadowed")
        report = run_lint(build, spec_name="shadowed.spec")
        assert report.diagnostics  # non-trivial payload
        assert LintReport.from_json(report.to_json(indent=2)) == report

    def test_schema_shape(self):
        build = _build_fixture("chainloop")
        report = run_lint(build, spec_name="chainloop.spec")
        payload = json.loads(report.to_json())
        assert payload["version"] == JSON_VERSION
        assert payload["spec"] == "chainloop.spec"
        assert payload["target"] == "testmachine"
        assert set(payload["summary"]) == {"error", "warning", "info"}
        for raw in payload["diagnostics"]:
            assert set(raw) == {"code", "severity", "message", "line",
                                "data"}
            assert raw["code"] in CODES

    def test_version_mismatch_rejected(self):
        with pytest.raises(ValueError, match="version"):
            LintReport.from_json(
                '{"version": 99, "spec": "x", "target": "y", '
                '"summary": {}, "diagnostics": []}'
            )

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError, match="SL999"):
            Diagnostic(code="SL999", severity="error", message="nope")

    def test_unknown_severity_rejected(self):
        with pytest.raises(ValueError, match="fatal"):
            Diagnostic(code="SL000", severity="fatal", message="nope")


class TestReportMechanics:
    def test_sort_is_worst_first(self):
        report = LintReport(spec_name="x", target="y")
        report.extend([
            Diagnostic(code="SL023", severity="info", message="c"),
            Diagnostic(code="SL030", severity="error", message="a"),
            Diagnostic(code="SL020", severity="warning", message="b"),
        ])
        report.sort()
        assert [d.severity for d in report.diagnostics] == [
            "error", "warning", "info",
        ]
        assert report.worst() == "error"
        assert len(report.at_least("warning")) == 2

    def test_severity_rank_order(self):
        assert (severity_rank("info")
                < severity_rank("warning")
                < severity_rank("error"))

    def test_build_failure_is_sl000(self, tmp_path, capsys):
        path = tmp_path / "broken.spec"
        path.write_text("$Productions\nr.1 ::= load x.1\n")
        assert main(["lint", str(path)]) == 1
        out = capsys.readouterr().out
        assert "SL000" in out
        assert "failed to build" in out
