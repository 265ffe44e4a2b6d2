"""Tests: the optimizer degradation contract.

A sealed fact that fails its integrity check at ``-O N`` makes
``compile_program`` return the clean ``-O(N-1)`` compile, level by level
down to ``-O1`` at the latest, with one ``stats["degraded"]`` event per
level given up.  Covers a forced fault in every fact set at every level
that builds facts, a fault in every fact set (the full descent), the
clean path, the ``optimizer`` chaos injector, and every surface that
reports the events (CLI, service payload, batch report, codequality
validation).
"""

import random

import pytest

from repro.bench.workloads import register_pressure
from repro.cli import main
from repro.opt import dataflow
from repro.pascal.compiler import compile_source
from repro.pascal.interp import interpret_source
from repro.robustness.faultinject import (
    CHAOS_PROGRAM,
    _FACT_SETS,
    _damage_facts,
    run_chaos,
)

PROGRAMS = {
    "chaos": CHAOS_PROGRAM,  # a call graph for the summaries
    "pressure": register_pressure(20),  # spills for the planner
}

#: The lowest level at which a compile builds each fact set.
BUILT_FROM = {name: 2 for name in _FACT_SETS}
BUILT_FROM.update({"available-exprs": 3, "summaries": 4})

#: The pressure program makes no calls: its summary sets are empty.
NOTHING_TO_DAMAGE = {("pressure", "summaries")}


@pytest.fixture
def hook():
    """Install a fault hook for one test; always uninstalled."""

    def install(fn):
        dataflow.FAULT_HOOK = fn

    yield install
    dataflow.FAULT_HOOK = None


def _compile_with(install, fn, source, level):
    install(fn)
    try:
        return compile_source(source, opt_level=level)
    finally:
        install(None)


def _fault_once(target):
    """A hook that damages the first non-empty ``target`` fact set."""
    fired = []
    rng = random.Random(0)

    def fn(facts):
        if not fired and facts.name == target \
                and _damage_facts(facts, "mutate", rng):
            fired.append(facts.name)

    return fn, fired


@pytest.mark.parametrize("program", sorted(PROGRAMS))
@pytest.mark.parametrize("target", _FACT_SETS)
@pytest.mark.parametrize("level", [2, 3, 4])
def test_forced_fault_returns_the_clean_lower_level(
    hook, program, target, level
):
    source = PROGRAMS[program]
    fn, fired = _fault_once(target)
    compiled = _compile_with(hook, fn, source, level)
    assert bool(fired) == (
        level >= BUILT_FROM[target]
        and (program, target) not in NOTHING_TO_DAMAGE
    )
    if not fired:
        assert compiled.stats["degraded"] == []
        final = level
    else:
        (event,) = compiled.stats["degraded"]
        assert event["component"] == target
        assert "integrity" in event["reason"]
        assert event["fell_back_to"] == level - 1
        final = level - 1
    clean = compile_source(source, opt_level=final)
    assert compiled.object_records == clean.object_records
    assert compiled.stats["opt_level"] == final
    assert compiled.stats["global"] == clean.stats["global"]
    assert compiled.stats["regalloc"] == clean.stats["regalloc"]


def test_fault_everywhere_descends_to_O1(hook):
    def unseal(facts):
        facts.digest = ""

    compiled = _compile_with(hook, unseal, CHAOS_PROGRAM, 4)
    events = compiled.stats["degraded"]
    assert [e["fell_back_to"] for e in events] == [3, 2, 1]
    assert events[0]["component"] == "summaries"
    assert all("never sealed" in e["reason"] for e in events)
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


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_optimizer_injector(seed):
    report = run_chaos(seed=seed, runs=8, injectors=["optimizer"])
    assert [r.outcome for r in report.results] == ["survived"] * 8, \
        report.render()


# ---- surfaces ---------------------------------------------------------------


def _unseal_summaries(facts):
    if facts.name == "summaries":
        facts.digest = ""


def test_cli_prints_each_event(hook, tmp_path, capsys):
    path = tmp_path / "chaos.pas"
    path.write_text(CHAOS_PROGRAM)
    hook(_unseal_summaries)
    assert main(["run", str(path), "-O", "4"]) == 0
    captured = capsys.readouterr()
    assert captured.out == interpret_source(CHAOS_PROGRAM)
    assert "** degraded: -O4 -> -O3 (summaries: facts were never sealed)" \
        in captured.err


def test_service_and_batch_return_events(hook):
    from repro.pipeline.batch import BatchResult
    from repro.pipeline.service import ServiceRequest, execute_request

    request = ServiceRequest(kind="run", source=CHAOS_PROGRAM, opt_level=4)
    assert execute_request(request)["degraded_events"] == []
    hook(_unseal_summaries)
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
        "component": "liveness", "reason": "liveness: facts failed",
        "fell_back_to": 2,
    }]
    problems = validate_report(report)
    assert "w.table_O3 fell back to -O2: liveness: facts failed" in problems
