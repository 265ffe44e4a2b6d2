"""Unit + golden tests: the generated-code sanitizer (SL050-SL053).

The ``tests/fixtures/gencode/*.gc`` files are hand-seeded defect cases
in a tiny assembler-ish notation the test parses into a symbolic
:class:`CodeBuffer`:

* ``LN:``          -- define label N
* ``b COND LN``    -- branch site, condition mask COND, target LN
* ``@ TAG``        -- provenance tag for the next item (spec line N: ...)
* ``op a b ...``   -- instruction; operands ``rN`` (register),
  ``D(X,B)`` (memory), ``=N`` (immediate)

Each fixture's ``.golden`` file pins the sanitizer's full text report.
"""

import re
from pathlib import Path

import pytest

from repro.analysis import run_gencode_lint, sanitize_generated
from repro.analysis.diag import CODES, LintReport
from repro.core.codegen.cse import CseManager
from repro.core.codegen.emitter import (
    BranchSite,
    CodeBuffer,
    Imm,
    Instr,
    LabelMark,
    Mem,
    R,
)
from repro.core.codegen.labels import LabelDictionary
from repro.core.codegen.parser_rt import GeneratedCode
from repro.machines.s370.spec import machine_description

FIXTURES = Path(__file__).parent / "fixtures" / "gencode"

ENC = machine_description().encoder

#: fixture name -> the exact set of codes it must raise
FIXTURE_CASES = {
    "undefined_use": {"SL050"},
    "dead_store": {"SL051"},
    "unreachable": {"SL052"},
    "clean": set(),
}

_MEM = re.compile(r"^(\d+)\((\d+),(\d+)\)$")


def _operand(text: str):
    if text.startswith("r"):
        return R(int(text[1:]))
    if text.startswith("="):
        return Imm(int(text[1:]))
    match = _MEM.match(text)
    if match is None:
        raise ValueError(f"bad operand {text!r}")
    disp, index, base = (int(g) for g in match.groups())
    return Mem(disp, index, base)


def parse_gc(text: str) -> GeneratedCode:
    buffer = CodeBuffer()
    labels = LabelDictionary()
    origin = ""
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("@"):
            origin = line[1:].strip()
            continue
        if line.endswith(":"):
            labels.define(int(line[1:-1]))
            buffer.items.append(LabelMark(int(line[1:-1])))
        elif line.startswith("b "):
            _, cond, label = line.split()
            labels.reference(int(label[1:]))
            buffer.items.append(
                BranchSite(cond=int(cond), label=int(label[1:]),
                           index_reg=0)
            )
        else:
            parts = line.split()
            buffer.items.append(
                Instr(parts[0], tuple(_operand(p) for p in parts[1:]))
            )
        if origin:
            buffer.origins[len(buffer.items) - 1] = origin
            origin = ""
    return GeneratedCode(buffer=buffer, labels=labels, cse=CseManager())


def _lint_fixture(name: str) -> LintReport:
    code = parse_gc((FIXTURES / f"{name}.gc").read_text())
    return run_gencode_lint(code, ENC, program_name=f"{name}.gc",
                            target="s370")


class TestFixtures:
    @pytest.mark.parametrize("name", sorted(FIXTURE_CASES))
    def test_golden_output(self, name):
        report = _lint_fixture(name)
        assert report.render() + "\n" == \
            (FIXTURES / f"{name}.golden").read_text()

    @pytest.mark.parametrize("name", sorted(FIXTURE_CASES))
    def test_intended_codes(self, name):
        assert set(_lint_fixture(name).codes()) == FIXTURE_CASES[name]

    def test_provenance_line_extracted(self):
        [diag] = _lint_fixture("undefined_use").diagnostics
        assert diag.line == 7
        assert "spec line 7: lr r.1,r.2" in diag.message
        assert diag.data["reg"] == 5


def make_code(items, origins=None):
    buffer = CodeBuffer()
    buffer.items = list(items)
    buffer.origins = dict(origins or {})
    labels = LabelDictionary()
    for item in buffer.items:
        if isinstance(item, LabelMark):
            labels.define(item.label)
        elif isinstance(item, BranchSite):
            labels.reference(item.label)
    return GeneratedCode(buffer=buffer, labels=labels, cse=CseManager())


class TestSanitizerRules:
    def test_save_restore_uses_exempt_from_sl050(self):
        # STM's register-range "uses" carry the caller's values; the
        # sanitizer must not demand definitions for them.
        code = make_code([
            Instr("stm", (R(2), R(9), Mem(28, 0, 13))),
            Instr("lm", (R(2), R(9), Mem(28, 0, 13))),
            Instr("svc", (Imm(0),)),
        ])
        codes = {d.code for d in sanitize_generated(code, ENC)}
        assert "SL050" not in codes

    def test_entry_defined_registers_are_not_flagged(self):
        code = make_code([
            Instr("lr", (R(2), R(13))),   # base reg: defined at entry
            Instr("lr", (R(1), R(2))),
            Instr("svc", (Imm(1),)),
            Instr("svc", (Imm(0),)),
        ])
        codes = {d.code for d in sanitize_generated(code, ENC)}
        assert "SL050" not in codes

    def test_store_read_on_one_path_not_flagged(self):
        # A store that IS read on some path must not be SL051.
        code = make_code([
            Instr("st", (R(1), Mem(100, 0, 13))),
            Instr("ltr", (R(1), R(1))),
            BranchSite(cond=8, label=1, index_reg=0),
            Instr("l", (R(1), Mem(100, 0, 13))),
            LabelMark(1),
            Instr("svc", (Imm(1),)),
            Instr("svc", (Imm(0),)),
        ])
        codes = {d.code for d in sanitize_generated(code, ENC)}
        assert "SL051" not in codes

    def test_indexed_store_not_provable(self):
        # An indexed store could alias anything: never reported.
        code = make_code([
            Instr("st", (R(1), Mem(100, 11, 13))),
            Instr("svc", (Imm(0),)),
        ])
        codes = {d.code for d in sanitize_generated(code, ENC)}
        assert "SL051" not in codes

    def test_bad_cfg_reports_nothing_but_coverage(self):
        # Branch to an undefined label: structurally broken stream.
        code = make_code([
            BranchSite(cond=15, label=42, index_reg=0),
            Instr("lr", (R(2), R(5))),
            Instr("svc", (Imm(0),)),
        ])
        diags = sanitize_generated(code, ENC)
        assert {d.code for d in diags} <= {"SL053"}

    def test_sl05x_codes_registered(self):
        for code in ("SL050", "SL051", "SL052", "SL053"):
            assert code in CODES


class TestShippedPipeline:
    """Acceptance: zero sanitizer errors on real compiler output."""

    @pytest.mark.parametrize("opt_level", [0, 1, 2])
    def test_no_errors_on_compiled_program(self, opt_level):
        from repro.pascal.compiler import cached_build, compile_source

        compiled = compile_source(
            "program p; var i, s: integer;\n"
            "begin s := 0; i := 1;\n"
            "  while i <= 10 do begin s := s + i; i := i + 1 end;\n"
            "  writeln(s)\nend.",
            opt_level=opt_level,
        )
        encoder = cached_build("full").machine.encoder
        report = run_gencode_lint(compiled.generated, encoder,
                                  program_name="sum", target="s370")
        assert report.counts()["error"] == 0

    def test_o2_clears_o0_dead_stores(self):
        from repro.bench.workloads import straightline
        from repro.pascal.compiler import cached_build, compile_source

        encoder = cached_build("full").machine.encoder
        source = straightline(60, seed=3)
        warn0 = run_gencode_lint(
            compile_source(source, opt_level=0).generated, encoder
        ).counts()["warning"]
        warn2 = run_gencode_lint(
            compile_source(source, opt_level=2).generated, encoder
        ).counts()["warning"]
        assert warn0 > 0
        assert warn2 == 0

    def test_cli_gencode_lane(self, tmp_path, capsys):
        from repro.cli import main

        src = tmp_path / "p.pas"
        src.write_text(
            "program p; var x: integer; "
            "begin x := 2; writeln(x * 3) end."
        )
        assert main(["lint", "full", "--gencode", str(src), "-O", "1",
                     "--fail-on", "error"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out


class TestDoubleShiftEffects:
    """A double shift by a constant 32..63 moves one register of the
    pair wholly out, so it reads only the other one; the sign-extend
    idiom ``srda dbl,32`` before a divide must not count as a use of
    the odd register."""

    @pytest.mark.parametrize(
        "op, amount, uses",
        [
            ("srda", Imm(31), {6, 7}),
            ("srda", Imm(32), {6}),
            ("srdl", Mem(63, 0, 0), {6}),
            ("srda", Imm(96), {6}),       # the amount is its low 6 bits
            ("srda", Imm(64), {6, 7}),
            ("slda", Imm(32), {7}),
            ("sldl", Mem(40, 0, 0), {7}),
            ("sldl", Imm(12), {6, 7}),
            ("srda", Mem(32, 0, 3), {3, 6, 7}),   # amount in a register
            ("slda", Mem(0, 0, 3), {3, 6, 7}),
        ],
    )
    def test_effect_entry_per_amount_form(self, op, amount, uses):
        effects = ENC.effects(Instr(op, (R(6), amount)))
        assert effects.uses == frozenset(uses)
        assert effects.defs == frozenset({6, 7})
        assert effects.pair

    @pytest.mark.parametrize("opt_level", [0, 1, 2, 3, 4])
    def test_sl050_clean_on_straightline(self, opt_level):
        from repro.bench.workloads import straightline
        from repro.pascal.compiler import compile_source

        compiled = compile_source(straightline(400), opt_level=opt_level)
        report = run_gencode_lint(compiled.generated, ENC)
        assert "SL050" not in report.codes()
