"""Tests: the optimizer degradation contract.

Any exception escaping the spill planner (-O3/-O4) or the global passes
(-O2..-O4) at ``-O N`` makes ``compile_program`` return the clean
``-O(N-1)`` compile, level by level down to ``-O1`` at the latest, with
one ``stats["degraded"]`` event per level given up.  Covers a raising
global pass at every level that runs it, a raising spill planner and
summary computation, a spill plan that fails its replay, a failure at
every level (the full descent), the clean path, and every surface that
reports the events (CLI, service payload, batch report, codequality
validation).
"""

import dataclasses

import pytest

from repro.bench.workloads import register_pressure
from repro.cli import main
from repro.opt import globalopt, spillplan
from repro.opt import summaries as S
from repro.pascal.compiler import compile_source
from repro.pascal.interp import interpret_source
from repro.robustness.faultinject import CHAOS_PROGRAM

PROGRAMS = {
    "chaos": CHAOS_PROGRAM,  # a call graph for the summaries
    "pressure": register_pressure(20),  # spills for the planner
}

#: The three steps of one global-optimizer round, then the rewrite
#: rules the sweeps call and the two control-flow passes; ``_pass_cse``
#: runs at -O3+.
PASSES = (
    "_sweep_values", "_sweep_dead", "_control_flow",
    "_pass_unreachable", "_pass_forward", "_pass_cse", "_pass_copy_elim",
    "_pass_dead_def", "_pass_dead_store", "_pass_branches",
)


class Injected(Exception):
    """The failure the tests plant in an optimizer layer."""


def _raise_at(monkeypatch, owner, name, levels, level_of):
    """Make ``owner.name`` raise :class:`Injected` whenever
    ``level_of(args, kwargs)`` is in ``levels``; returns the list of
    levels at which it raised."""
    original = getattr(owner, name)
    fired = []

    def damaged(*args, **kwargs):
        level = level_of(args, kwargs)
        if level in levels:
            fired.append(level)
            raise Injected(f"{name} broke at -O{level}")
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, damaged)
    return fired


def _pass_raises_at(monkeypatch, name, levels):
    return _raise_at(
        monkeypatch, globalopt._Global, name, levels,
        lambda args, kwargs: args[0].level,
    )


def _assert_one_level_lost(compiled, source, level, component,
                           error="Injected: "):
    (event,) = compiled.stats["degraded"]
    assert event["component"] == component
    assert event["reason"].startswith(f"{component}: {error}")
    assert event["fell_back_to"] == level - 1
    clean = compile_source(source, opt_level=level - 1)
    assert clean.stats["degraded"] == []
    assert compiled.object_records == clean.object_records
    assert compiled.stats["opt_level"] == level - 1
    assert compiled.stats["global"] == clean.stats["global"]
    assert compiled.stats["regalloc"] == clean.stats["regalloc"]


@pytest.mark.parametrize("name", PASSES)
@pytest.mark.parametrize("level", [2, 3, 4])
def test_raising_pass_costs_one_level(monkeypatch, name, level):
    fired = _pass_raises_at(monkeypatch, name, {level})
    compiled = compile_source(CHAOS_PROGRAM, opt_level=level)
    if not fired:
        assert name == "_pass_cse" and level == 2
        assert compiled.stats["degraded"] == []
        return
    _assert_one_level_lost(compiled, CHAOS_PROGRAM, level, "globalopt")


@pytest.mark.parametrize("level", [3, 4])
def test_raising_planner_costs_one_level(monkeypatch, level):
    source = PROGRAMS["pressure"]
    fired = _raise_at(
        monkeypatch, spillplan, "build_plan", {level},
        lambda args, kwargs: kwargs["level"],
    )
    compiled = compile_source(source, opt_level=level)
    assert fired == [level]
    _assert_one_level_lost(compiled, source, level, "spillplan")


@pytest.mark.parametrize("level", [3, 4])
def test_stale_spill_plan_costs_one_level(monkeypatch, level):
    """A plan whose last directive carries a stale guard fails its
    replay in the allocator: the compile loses exactly one level."""
    source = PROGRAMS["pressure"]
    build_plan = spillplan.build_plan

    def stale(*args, **kwargs):
        plan = build_plan(*args, **kwargs)
        if kwargs["level"] != level:
            return plan
        last = plan[-1]
        return plan[:-1] + (
            dataclasses.replace(last, guard_index=last.guard_index + 1),
        )

    monkeypatch.setattr(spillplan, "build_plan", stale)
    compiled = compile_source(source, opt_level=level)
    _assert_one_level_lost(
        compiled, source, level, "spillplan",
        "DataflowError: spill plan mismatch at eviction ",
    )


@pytest.mark.parametrize("program, component", [
    ("chaos", "globalopt"),
    # A program that spills meets the summaries first in the planner.
    ("pressure", "spillplan"),
])
def test_raising_summaries_cost_one_level(monkeypatch, program, component):
    source = PROGRAMS[program]
    fired = _raise_at(
        monkeypatch, S, "compute_summaries", {4}, lambda args, kwargs: 4,
    )
    compiled = compile_source(source, opt_level=4)
    assert fired == [4]
    _assert_one_level_lost(compiled, source, 4, component)


def test_failure_everywhere_descends_to_O1(monkeypatch):
    _pass_raises_at(monkeypatch, "_pass_dead_def", {2, 3, 4})
    compiled = compile_source(CHAOS_PROGRAM, opt_level=4)
    events = compiled.stats["degraded"]
    assert [e["fell_back_to"] for e in events] == [3, 2, 1]
    assert all(e["component"] == "globalopt" for e in events)
    clean = compile_source(CHAOS_PROGRAM, opt_level=1)
    assert compiled.object_records == clean.object_records


@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_clean_compiles_record_no_event(program):
    source = PROGRAMS[program]
    expected = interpret_source(source)
    for level in range(5):
        compiled = compile_source(source, opt_level=level)
        assert compiled.stats["degraded"] == []
        assert compiled.run().output == expected


# ---- surfaces ---------------------------------------------------------------


def test_cli_prints_each_event(monkeypatch, tmp_path, capsys):
    path = tmp_path / "chaos.pas"
    path.write_text(CHAOS_PROGRAM)
    _pass_raises_at(monkeypatch, "_pass_forward", {4})
    assert main(["run", str(path), "-O", "4"]) == 0
    captured = capsys.readouterr()
    assert captured.out == interpret_source(CHAOS_PROGRAM)
    assert (
        "** degraded: -O4 -> -O3 (globalopt: Injected: _pass_forward "
        "broke at -O4)" in captured.err
    )


def test_service_and_batch_return_events(monkeypatch):
    from repro.pipeline.batch import BatchResult
    from repro.pipeline.service import ServiceRequest, execute_request

    request = ServiceRequest(kind="run", source=CHAOS_PROGRAM, opt_level=4)
    assert execute_request(request)["degraded_events"] == []
    _pass_raises_at(monkeypatch, "_pass_forward", {4})
    payload = execute_request(request)
    (event,) = payload["degraded_events"]
    assert event["fell_back_to"] == 3
    assert payload["output"] == interpret_source(CHAOS_PROGRAM)
    assert BatchResult.from_dict(payload).degraded_events == [event]


def test_codequality_validate_fails_a_degraded_lane():
    from repro.bench.codequality import validate_report

    lane = {
        "executed_instructions": 10, "code_bytes": 8, "peephole": {},
        "spill_stores": 0, "reloads": 0, "halted": True, "degraded": [],
    }
    lanes = {name: dict(lane) for name in (
        "table_O0", "table_O1", "table_O2", "table_O3", "table_O4",
    )}
    lanes["baseline"] = dict(lane)
    lanes["table_O2"]["global"] = {}
    lanes["table_O3"]["regalloc"] = lanes["table_O4"]["regalloc"] = {}
    report = {"workloads": [
        {"workload": "w", "outputs_identical": True, "lanes": lanes},
    ]}
    assert not any("fell back" in p for p in validate_report(report))
    lanes["table_O3"]["degraded"] = [{
        "component": "spillplan", "reason": "spillplan: Injected: broke",
        "fell_back_to": 2,
    }]
    problems = validate_report(report)
    assert "w.table_O3 fell back to -O2: spillplan: Injected: broke" \
        in problems
