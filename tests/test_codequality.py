"""Tests: code-quality bench lane, grammar idioms, peephole round-trips.

Covers the satellites around the peephole optimizer: the
``bench codequality`` report (schema, gate, CLI ``--validate``), the new
spec idiom productions (compare-against-zero via LTR, negation fusion,
increment-by-negative-constant), the encoder/disassembler round trip for
every mnemonic the peephole can emit or rewrite, and the ``peephole``
chaos injector.
"""

import json

import pytest

from repro.bench import codequality
from repro.cli import main
from repro.core.codegen.emitter import Imm, Instr, Mem, R
from repro.machines.s370.disasm import disassemble
from repro.machines.s370.encode import S370Encoder
from repro.machines.s370.isa import OPCODES
from repro.pascal.compiler import compile_source

SMALL = [
    ("appendix1_equation", None),
    ("chain_loop", 40),
    ("straightline", 60),       # second strict -O2 win for the gate
    ("register_pressure", 20),  # spill-store reduction for the -O3 gate
    ("call_heavy", 30),         # the required strict -O4 win
    ("literal_pressure", 22),   # -O4 spill elimination via remat
]


def _small_workloads():
    from repro.bench import workloads as W

    out = []
    for name, arg in SMALL:
        factory = getattr(W, name)
        out.append((name, factory() if arg is None else factory(arg)))
    return out


@pytest.fixture()
def small_report(monkeypatch):
    monkeypatch.setattr(codequality, "quality_workloads", _small_workloads)
    return codequality.run_bench()


class TestQualityBench:
    def test_report_shape_and_gate(self, small_report):
        assert small_report["schema_version"] == codequality.SCHEMA_VERSION
        assert small_report["all_outputs_identical"] is True
        assert len(small_report["workloads"]) == len(SMALL)
        for entry in small_report["workloads"]:
            assert set(entry["lanes"]) == set(codequality.LANES)
            for lane in codequality.LANES:
                data = entry["lanes"][lane]
                if lane == "baseline" and "unsupported" in data:
                    continue  # no spill path: refusal is recorded
                assert data["halted"] is True
                assert data["executed_instructions"] > 0
                assert data["code_bytes"] > 0
            assert entry["reduction_O1_vs_O0"] >= 0.0
            assert entry["reduction_O3_vs_O2"] >= 0.0
            assert entry["reduction_O4_vs_O3"] >= 0.0
            assert "regalloc" in entry["lanes"]["table_O3"]
            assert "regalloc" in entry["lanes"]["table_O4"]

    def test_rule_totals_attribute_the_wins(self, small_report):
        totals = small_report["rule_totals"]
        assert sum(totals.values()) > 0
        from repro.opt import ALL_RULES

        assert set(totals) <= set(ALL_RULES)

    def test_validate_accepts_fresh_report(self, small_report):
        assert codequality.validate_report(small_report) == []

    def test_validate_rejects_broken_gate(self, small_report):
        bad = json.loads(json.dumps(small_report))
        bad["all_outputs_identical"] = False
        bad["workloads"][0]["outputs_identical"] = False
        problems = codequality.validate_report(bad)
        assert any("all_outputs_identical" in p for p in problems)
        assert any("outputs_identical" in p for p in problems)

    def test_validate_rejects_missing_lane(self, small_report):
        bad = json.loads(json.dumps(small_report))
        del bad["workloads"][0]["lanes"]["baseline"]
        problems = codequality.validate_report(bad)
        assert any("missing lane 'baseline'" in p for p in problems)

    def test_validate_rejects_wrong_schema(self):
        assert codequality.validate_report({"schema_version": 99})

    def test_render_summary_lists_every_workload(self, small_report):
        text = codequality.render_summary(small_report)
        for name, _ in SMALL:
            assert name in text
        assert "outputs identical: True" in text

    def test_cli_validate_round_trip(self, small_report, tmp_path, capsys):
        path = tmp_path / "q.json"
        codequality.write_report(small_report, path)
        assert main(["bench", "codequality", "--validate", str(path)]) == 0
        assert "valid (schema 4" in capsys.readouterr().out

        bad = json.loads(path.read_text())
        bad["all_outputs_identical"] = False
        path.write_text(json.dumps(bad))
        assert main(["bench", "codequality", "--validate", str(path)]) == 1
        assert "invalid:" in capsys.readouterr().err


class TestCompareReports:
    def test_self_compare_has_no_regressions(self, small_report):
        table, regressions = codequality.compare_reports(
            small_report, small_report
        )
        assert regressions == []
        assert "no regressions" in table

    def test_risen_metric_is_a_regression(self, small_report):
        worse = json.loads(json.dumps(small_report))
        lane = worse["workloads"][0]["lanes"]["table_O3"]
        lane["executed_instructions"] += 5
        table, regressions = codequality.compare_reports(
            small_report, worse
        )
        assert len(regressions) == 1
        assert "O3 steps rose" in regressions[0]
        assert "+5" in table

    def test_improvement_is_not_a_regression(self, small_report):
        better = json.loads(json.dumps(small_report))
        better["workloads"][0]["lanes"]["table_O3"]["spill_stores"] = 0
        lane = better["workloads"][0]["lanes"]["table_O3"]
        lane["executed_instructions"] -= 1
        _table, regressions = codequality.compare_reports(
            small_report, better
        )
        assert regressions == []

    def test_new_and_missing_workloads_never_regress(self, small_report):
        old = json.loads(json.dumps(small_report))
        old["workloads"] = old["workloads"][:-1]
        table, regressions = codequality.compare_reports(
            old, small_report
        )
        assert regressions == []
        assert "(new)" in table
        table, regressions = codequality.compare_reports(
            small_report, old
        )
        assert regressions == []
        assert "dropped" in table

    def test_old_schema2_lane_is_skipped(self, small_report):
        old = json.loads(json.dumps(small_report))
        for entry in old["workloads"]:
            del entry["lanes"]["table_O3"]
        _table, regressions = codequality.compare_reports(
            old, small_report
        )
        assert regressions == []

    def test_cli_compare_round_trip(self, small_report, tmp_path, capsys):
        old_path = tmp_path / "old.json"
        new_path = tmp_path / "new.json"
        codequality.write_report(small_report, old_path)
        worse = json.loads(json.dumps(small_report))
        worse["workloads"][0]["lanes"]["table_O3"]["spill_stores"] += 2
        new_path.write_text(json.dumps(worse))
        assert main(["bench", "codequality", "--compare",
                     str(old_path), str(old_path)]) == 0
        assert "no regressions" in capsys.readouterr().out
        assert main(["bench", "codequality", "--compare",
                     str(old_path), str(new_path)]) == 1
        assert "O3 spills rose" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# The new spec idiom productions (compiled at -O0: grammar, not peephole).
# ---------------------------------------------------------------------------


def _disasm(source):
    compiled = compile_source(source, opt_level=0)
    module = compiled.module
    decoded = disassemble(module.code, start=module.entry)
    return compiled, {d.text.split()[0] for d in decoded}


class TestGrammarIdioms:
    def test_compare_against_zero_uses_ltr(self):
        compiled, mnemonics = _disasm(
            "program p; var x: integer;\n"
            "begin x := 3; if x > 0 then writeln(1) else writeln(2) end.\n"
        )
        assert "ltr" in mnemonics
        assert "c" not in mnemonics  # no storage compare against 0
        assert compiled.run().output.split() == ["1"]

    def test_zero_on_the_left_mirrors_the_mask(self):
        # 0 < x must behave as x > 0, not x < 0.
        source = (
            "program p; var x: integer;\n"
            "begin x := {}; if 0 < x then writeln(1) else writeln(2) end.\n"
        )
        compiled, mnemonics = _disasm(source.format(3))
        assert "ltr" in mnemonics
        assert compiled.run().output.split() == ["1"]
        compiled, _ = _disasm(source.format(-3))
        assert compiled.run().output.split() == ["2"]

    def test_negated_abs_fuses_to_lnr(self):
        compiled, mnemonics = _disasm(
            "program p; var x, y: integer;\n"
            "begin y := 7; x := -abs(y); writeln(x) end.\n"
        )
        assert "lnr" in mnemonics
        assert compiled.run().output.split() == ["-7"]

    def test_subtracting_negative_constant_avoids_lcr(self):
        compiled, mnemonics = _disasm(
            "program p; var x, y: integer;\n"
            "begin y := 10; x := y - (-5); writeln(x) end.\n"
        )
        assert "lcr" not in mnemonics  # LA materializes |c| directly
        assert compiled.run().output.split() == ["15"]


# ---------------------------------------------------------------------------
# Disassembler round trip for everything the peephole touches.
# ---------------------------------------------------------------------------

ENC = S370Encoder()

#: Every mnemonic the peephole pass can emit, rewrite, or reason about,
#: with sample operands for its format.
PEEPHOLE_MNEMONICS = {
    "RR": ("lr ltr lnr lcr lpr ar sr nr or xr cr clr mr dr bctr".split(),
           (R(6), R(3))),
    "RX": ("l lh la ic st sth stc a s n o x ah sh mh c ch cl m d "
           "bct".split(),
           (R(5), Mem(850, 4, 12))),
    "RS": ("sla sra sll srl slda srda sldl srdl".split(), (R(2), Imm(3))),
    "SI": ("mvi ni oi xi tm cli".split(), (Mem(80, 0, 13), Imm(1))),
    "SS": ("mvc clc nc oc xc".split(), (Mem(0, 7, 1), Mem(0, 0, 2))),
}

ALL_CASES = [
    (m, operands)
    for _fmt, (mnemonics, operands) in PEEPHOLE_MNEMONICS.items()
    for m in mnemonics
]


class TestPeepholeMnemonicRoundTrip:
    @pytest.mark.parametrize("mnemonic,operands", ALL_CASES,
                             ids=[m for m, _ in ALL_CASES])
    def test_encode_disassemble_round_trip(self, mnemonic, operands):
        assert mnemonic in OPCODES, f"{mnemonic} missing from the ISA"
        instr = Instr(mnemonic, operands)
        data = ENC.encode(instr)
        assert len(data) == OPCODES[mnemonic].length
        [decoded] = disassemble(data)
        assert decoded.text.split()[0] == mnemonic
        # Re-encoding the decoded text's operands must be stable: the
        # decoder and encoder agree on every field.
        assert decoded.text == disassemble(ENC.encode(instr))[0].text

    def test_formats_cover_the_whole_rule_table(self):
        from repro.opt import ALL_RULES

        assert len(ALL_RULES) == 5  # keep the table and tests in sync
        emitted = {"lr", "sr"}  # replacements the rules build
        assert emitted <= {m for m, _ in ALL_CASES}


# ---------------------------------------------------------------------------
# CLI: -O levels and --dump-asm.
# ---------------------------------------------------------------------------

PROGRAM = (
    "program p; var i, acc: integer;\n"
    "begin acc := 0; i := 10;\n"
    "  while i > 0 do begin acc := acc + i; i := i - 1 end;\n"
    "  writeln(acc)\nend.\n"
)


class TestCli:
    def test_run_output_identical_across_levels(self, tmp_path, capsys):
        path = tmp_path / "p.pas"
        path.write_text(PROGRAM)
        assert main(["run", str(path), "-O", "0"]) == 0
        out_o0 = capsys.readouterr().out
        assert main(["run", str(path)]) == 0
        out_o1 = capsys.readouterr().out
        assert out_o0 == out_o1
        assert "55" in out_o1

    def test_dump_asm_shows_annotated_diff(self, tmp_path, capsys):
        path = tmp_path / "p.pas"
        path.write_text(PROGRAM)
        assert main(["compile", str(path), "--dump-asm"]) == 0
        out = capsys.readouterr().out
        assert "--- before-peephole" in out
        assert "+++ after-peephole" in out
        assert "rewrites:" in out
        assert "[" in out.split("rewrites:")[1]  # per-rule annotations
