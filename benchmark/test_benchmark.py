"""Self-test of the benchmark, in smoke mode (one pass over a reduced
program set, five seconds of serving).  Run it with ``pytest benchmark/``;
it is not part of the tier-1 suite.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

import compare
import programs as P
import run

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def smoke(workload: str, trace: int, out: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--trace", str(trace), "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )


def last_json(stdout: str) -> dict:
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def check_metrics(result: dict, wanted: list) -> None:
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert isinstance(value["value"], float)
        assert math.isfinite(value["value"])


@pytest.mark.parametrize("workload", P.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload, tmp_path):
    done = smoke(workload, 0, tmp_path / "report.json")
    assert done.returncode == 0, done.stderr
    result = last_json(done.stdout)
    check_metrics(result, SPEC["end_to_end"])
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["value"] > 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["workloads"][workload]["metrics"] == result["metrics"]


@pytest.mark.parametrize("workload", P.WORKLOADS)
def test_traced_run_writes_nested_spans(workload, tmp_path):
    done = smoke(workload, 1, tmp_path / "report.json")
    assert done.returncode == 0, done.stderr
    result = last_json(done.stdout)
    check_metrics(result, SPEC["per_layer"])
    assert result["metrics"]["determinism_mismatches"]["value"] == 0
    trace = json.loads((run.OUT / f"trace-{workload}.json").read_text())
    tracks = defaultdict(list)
    for event in trace["traceEvents"]:
        if event["ph"] == "X":
            tracks[event["pid"], event["tid"]].append(event)
    names = {e["name"] for events in tracks.values() for e in events}
    assert {"op", "select", "CodeGenerator.generate", "dataflow.liveness",
            "build_automaton"} <= names
    slack = 0.01  # microseconds lost to rounding
    for events in tracks.values():
        for event in events:
            assert event["dur"] >= 0 and event["args"]["self_us"] >= 0
            parent = event["args"]["parent"]
            if parent >= 0:
                outer = events[parent]
                assert outer["ts"] <= event["ts"] + slack
                assert (event["ts"] + event["dur"]
                        <= outer["ts"] + outer["dur"] + slack)


def test_wrong_oracle_output_fails_the_run(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(run, "oracle", lambda program: "not the output\n")
    status = run.main(["--workload", "hot_loop", "--seed", "3", "--smoke",
                       "--out", str(tmp_path / "report.json")])
    assert status == 1
    result = last_json(capsys.readouterr().out)
    assert result["correct"] is False and result["failed"] >= 1


def test_without_sources_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        SPEC["command"] + ["--workload", "hot_loop", "--seed", "1",
                           "--seconds", str(SPEC["run_seconds"]),
                           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_run_length_is_fixed_by_benchmark_json(capsys):
    with pytest.raises(SystemExit) as exit_info:
        run.main(["--workload", "hot_loop",
                  "--seconds", str(SPEC["run_seconds"] + 1)])
    assert exit_info.value.code == 2
    assert capsys.readouterr().out == ""


def _report(path: Path, values: dict) -> None:
    path.write_text(json.dumps({"workloads": {"w": {"metrics": {
        name: {"value": value, "unit": "s"} for name, value in values.items()
    }}}}))


def test_compare_verdicts(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    rows = [  # (A runs, B runs) per metric, lower is better for all four
        ("compile_s", [1.00, 1.01, 0.99], [1.30, 1.31, 1.29]),  # worse
        ("run_s", [1.00, 1.01, 0.99], [1.02, 1.00, 1.01]),  # same
        ("setup_s", [1.00, 1.01, 0.99], [0.50, 0.51, 0.49]),  # improved
        ("op_p50_ms", [1.0, 2.0, 3.0], [2.0, 3.0, 4.0]),  # unresolved
    ]
    for i in range(3):
        _report(a / f"{i}.json", {m: va[i] for m, va, _ in rows})
        _report(b / f"{i}.json", {m: vb[i] for m, _, vb in rows})
    verdicts = {
        r["metric"]: r["verdict"]
        for r in compare.compare(compare.load(a), compare.load(b), SPEC)
    }
    assert verdicts == {"compile_s": "worse", "run_s": "same",
                        "setup_s": "improved", "op_p50_ms": "unresolved"}
    assert compare.main([str(a), str(b)]) == 1
    assert compare.main([str(a), str(a)]) == 0
    assert "worse" in capsys.readouterr().out
