"""Fault tolerance: parser watchdogs, graceful degradation, chaos runs.

The acceptance bar for the robustness subsystem:

* a genuine chain-rule reduction loop trips :class:`ChainLoopError`
  instead of spinning forever;
* runaway parses trip the step budget;
* blocking carries a structured diagnosis (LR state, lookahead, stack
  snapshot, expected symbols);
* a compilation whose tables block on one routine degrades that routine
  to the baseline generator and the degraded executable still matches
  the reference interpreter (the differential check);
* hundreds of seeded fault injections produce only typed errors.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core import tables as T
from repro.core.codegen.parser_rt import CodeGenerator, ParserGuards
from repro.core.tables import ParseTables
from repro.errors import (
    ChainLoopError,
    CodeGenBlockedError,
    CodeGenError,
    RegisterPressureError,
    ReproError,
    StepBudgetError,
)
from repro.ir.linear import IFToken
from repro.pascal.compiler import cached_build, compile_source
from repro.pascal.interp import interpret_source
from repro.robustness import generate_with_fallback, run_chaos
from repro.robustness.faultinject import INJECTORS

PROGRAM = """
program robust;
var i, total: integer;
procedure bump(x: integer);
begin
  total := total + x * x
end;
begin
  total := 0;
  i := 1;
  while i <= 5 do
  begin
    bump(i);
    i := i + 1
  end;
  writeln(total)
end.
"""


def _copy_tables(tables: ParseTables) -> ParseTables:
    return ParseTables(
        symbols=list(tables.symbols),
        matrix=[list(row) for row in tables.matrix],
    )


@pytest.fixture(scope="module")
def build():
    return cached_build("full")


@pytest.fixture(scope="module")
def compiled():
    return compile_source(PROGRAM)


# ---- parser watchdogs ------------------------------------------------------------


def test_chain_loop_detected(build, compiled):
    """A constructed unit-production cycle trips the chain watchdog.

    ``lambda ::= write_nl`` pops one value and prefixes one token, so a
    state whose every action reduces it loops with net-zero stack depth
    -- the exact shape the step budget alone would take ~200k steps to
    catch and the chain watchdog catches in ``chain_limit``.
    """
    pid = next(
        i
        for i, p in enumerate(build.sdts.productions)
        if p.lhs == "lambda" and p.rhs == ("write_nl",)
    )
    tables = _copy_tables(build.tables)
    lam_col = tables.sym_index["lambda"]
    reduce_action = T.encode_reduce(pid)
    for row in list(tables.matrix):
        action = row[lam_col]
        if T.is_shift(action):
            target = T.shift_state(action)
            tables.matrix[target] = [reduce_action] * tables.nsymbols
    generator = CodeGenerator(build.sdts, tables, build.machine)
    with pytest.raises(ChainLoopError) as info:
        generator.generate(
            list(compiled.tokens),
            frame=compiled.ir.spill_frame,
            guards=ParserGuards(chain_limit=500),
        )
    assert info.value.steps >= 500
    assert "chain-rule loop" in str(info.value)


def test_step_budget_trips(build, compiled):
    with pytest.raises(StepBudgetError) as info:
        build.code_generator.generate(
            list(compiled.tokens),
            frame=compiled.ir.spill_frame,
            guards=ParserGuards(step_budget=7),
        )
    assert info.value.budget == 7


def test_default_budget_passes(build, compiled):
    """The auto-derived budget never trips on a legitimate program."""
    generated = build.code_generator.generate(
        list(compiled.tokens), frame=compiled.ir.spill_frame
    )
    assert generated.reductions > 0


def test_blocked_error_payload(build):
    """Blocking carries state, lookahead, stack and expected symbols."""
    bogus = [IFToken("store"), IFToken("store"), IFToken("store")]
    with pytest.raises(CodeGenBlockedError) as info:
        build.code_generator.generate(bogus)
    error = info.value
    assert "blocked" in str(error)
    assert error.state >= 0
    assert error.lookahead.symbol == "store"
    assert error.stack  # snapshot of grammar symbols
    assert error.expected  # non-empty: some symbol had an action
    assert all(isinstance(s, str) for s in error.expected)


def test_corrupt_shift_target_is_typed(build, compiled):
    """A shift to a nonexistent state raises CodeGenError, not IndexError."""
    tables = _copy_tables(build.tables)
    patched = False
    for row in tables.matrix:
        for col, action in enumerate(row):
            if T.is_shift(action) and not patched:
                row[col] = T.encode_shift(tables.nstates + 5)
                patched = True
    assert patched
    generator = CodeGenerator(build.sdts, tables, build.machine)
    with pytest.raises(CodeGenError):
        generator.generate(
            list(compiled.tokens),
            frame=compiled.ir.spill_frame,
            guards=ParserGuards(step_budget=100_000),
        )


def test_bad_register_token_is_typed(build):
    """Register tokens naming nonexistent registers are rejected at
    shift time, before they can corrupt the allocator's pool."""
    with pytest.raises(CodeGenError) as info:
        build.code_generator._shift_value(IFToken("r", 99))
    assert "not a member" in str(info.value)


# ---- register pressure context ---------------------------------------------------


def test_register_pressure_carries_occupancy(build, compiled):
    machine = build.machine
    classes = dict(machine.classes)
    classes["r"] = replace(
        classes["r"], allocatable=classes["r"].allocatable[:1]
    )
    crippled = replace(machine, classes=classes)
    generator = CodeGenerator(build.sdts, build.tables, crippled)
    with pytest.raises(RegisterPressureError) as info:
        # No spill frame: exhaustion cannot spill.
        generator.generate(list(compiled.tokens), frame=None)
    error = info.value
    assert error.cls_name
    assert isinstance(error.occupancy, dict)
    assert "occupancy" in str(error)


# ---- graceful degradation --------------------------------------------------------


def _crippled_build(build, symbol: str):
    """A build whose tables cannot parse ``symbol`` at all."""
    tables = _copy_tables(build.tables)
    col = tables.sym_index[symbol]
    for row in tables.matrix:
        row[col] = T.ERROR
    return build.copy_with(
        tables=tables,
        code_generator=CodeGenerator(build.sdts, tables, build.machine),
    )


def test_fallback_differential(build):
    """A blocked routine degrades to baseline; output still matches.

    Erasing the ``imult`` column blocks every routine that multiplies
    (``bump``), while routines without ``*`` still go through the
    tables.  The degraded executable must agree with the reference
    interpreter -- the paper's differential oracle.
    """
    crippled = _crippled_build(build, "imult")
    compiled = compile_source(PROGRAM, fallback=True, build=crippled)
    degraded = {event.routine for event in compiled.fallback_events}
    assert "bump" in degraded
    # The main body has no multiply: it must NOT have degraded.
    assert len(degraded) < len(compiled.ir.routines)
    assert compiled.stats["fallback_routines"] == [
        event.routine for event in compiled.fallback_events
    ]
    result = compiled.run()
    assert result.trap is None
    assert result.output == interpret_source(PROGRAM)


def test_fallback_without_faults_matches_whole_program(build):
    """With healthy tables, fallback mode degrades nothing and the
    executable still matches the interpreter."""
    compiled = compile_source(PROGRAM, fallback=True)
    assert compiled.fallback_events == []
    assert compiled.run().output == interpret_source(PROGRAM)


def test_no_fallback_fails_outright(build):
    """Without fallback the same crippled build fails the whole
    compilation -- with a typed error, never a hang."""
    crippled = _crippled_build(build, "imult")
    with pytest.raises(CodeGenError):
        compile_source(PROGRAM, build=crippled)


def test_generate_with_fallback_records_reasons(build):
    crippled = _crippled_build(build, "imult")
    ir = compile_source(PROGRAM, optimize=False).ir
    generated, events = generate_with_fallback(crippled, ir)
    assert events
    event = events[0]
    assert event.routine == "bump"
    assert event.error_type == "CodeGenBlockedError"
    assert "blocked" in event.message
    assert generated.stats["fallback_routines"] == [e.routine for e in events]


# ---- the chaos harness -----------------------------------------------------------


def test_chaos_all_injectors_typed():
    report = run_chaos(seed=0, runs=60)
    assert len(report.results) == 60
    assert {r.injector for r in report.results} == set(INJECTORS)
    assert report.ok, report.render()


def test_chaos_is_deterministic():
    first = run_chaos(seed=7, runs=16)
    second = run_chaos(seed=7, runs=16)
    assert [str(r) for r in first.results] == [
        str(r) for r in second.results
    ]


def test_chaos_rejects_unknown_injector():
    with pytest.raises(ValueError):
        run_chaos(seed=0, runs=1, injectors=["warp-core"])


def test_chaos_single_injector():
    report = run_chaos(seed=3, runs=8, injectors=["objmod"])
    assert {r.injector for r in report.results} == {"objmod"}
    assert report.ok, report.render()
    for result in report.results:
        if result.outcome == "typed-error":
            assert result.error_type
            # every typed error is a ReproError subclass by construction
            assert result.ok


def test_chaos_cli_runs_one_injector(capsys):
    from repro.cli import main

    assert main(["chaos", "--runs", "2", "--seed", "5",
                 "--injector", "objmod"]) == 0
    out = capsys.readouterr().out
    assert "objmod" in out and out.rstrip().endswith("PASS")


def test_chaos_report_render_mentions_failures():
    from repro.robustness.faultinject import ChaosReport, ChaosResult

    report = ChaosReport(
        results=[
            ChaosResult("tables", 1, "survived"),
            ChaosResult("objmod", 2, "UNTYPED", "IndexError", "boom"),
        ]
    )
    assert not report.ok
    rendered = report.render()
    assert "FAIL" in rendered
    assert "IndexError" in rendered
