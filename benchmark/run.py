#!/usr/bin/env python3
"""The repository benchmark: compile cost, code quality and serving of CoGG.

    python3 benchmark/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace [0|1]] [--out FILE] [--smoke]

For each workload (see ``programs.py``) this script computes the oracle
outputs with the reference interpreter, times set-up in fresh
interpreters with empty caches (``probe.py``), and measures the workload
in one more fresh interpreter with its own empty cache (``worker.py``)
for ``run_seconds`` of ``BENCHMARK.json``; ``--seconds`` may only repeat
that value.  Times are in reference seconds (``calibration.py``).
Every temporary file lives under ``benchmark/out/``.  It prints every
metric by name with its unit and, as the last line, one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  An
untraced run (``--trace 0``, the default) reports the ``end_to_end``
metrics of ``BENCHMARK.json``; a traced run (``--trace 1``) reports its
``per_layer`` metrics and writes ``benchmark/out/trace-<workload>.json``
in Chrome trace-event format.  ``--smoke`` measures one pass over a
reduced program set and serves for five seconds.

Exit status: 0 when every output was correct, 1 when any was not, 2 when
the compiler's sources (``src/repro``) are missing or ``--seconds`` is
not ``run_seconds``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

import programs as P
from spans import write_chrome_trace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Cold set-up probes per untraced run; ``setup_s`` is their median.
#: Probe ``i`` runs under PYTHONHASHSEED ``i + 1`` (the worker under 0),
#: and the first ``HASHED`` compile every program for the determinism
#: check, so each program is compiled under three hash seeds.
PROBES = 7
HASHED = 2
SERVE_WARMUP_S = 2.0
SMOKE_SERVE_S = 5.0
SMOKE_WARMUP_S = 1.0
#: Safety net for one probe or worker process.
TIMEOUT_S = 170


def benchmark_spec() -> Dict[str, object]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def oracle(program: P.Program) -> str:
    """Expected output of a ``run`` program: the reference interpreter."""
    from repro.pascal.interp import interpret_source

    return interpret_source(program.source, input_values=list(program.inputs))


def run_script(script: str, job: Dict[str, object], scratch: Path,
               tag: str, cache: Path, hash_seed: int) -> Dict[str, object]:
    """Run one benchmark script in a fresh interpreter; returns its result."""
    job_path = scratch / f"{tag}.job.json"
    result_path = scratch / f"{tag}.result.json"
    job_path.write_text(json.dumps(job))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["REPRO_CACHE_DIR"] = str(cache)
    env["PYTHONHASHSEED"] = str(hash_seed)
    subprocess.run(
        [sys.executable, str(HERE / script), str(job_path), str(result_path)],
        env=env, stdout=subprocess.DEVNULL, timeout=TIMEOUT_S, check=True,
    )
    return json.loads(result_path.read_text())


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> Dict[str, object]:
    """Measure one workload; returns its report entry."""
    programs = P.workload(name, seed, smoke)
    entries = [
        {"program": vars(p),
         "expected": oracle(p) if p.kind == "run" else None}
        for p in programs
    ]
    if smoke:
        passes_s, serve_s, warmup_s = 0.0, SMOKE_SERVE_S, SMOKE_WARMUP_S
    elif trace:
        passes_s, serve_s, warmup_s = seconds / 2, seconds / 2, SERVE_WARMUP_S
    elif name == "serve_mixed":
        # Serving gets the run length; in-process passes over the pool
        # (compile_s, run_s, exec_steps, code_bytes) a third of it more.
        passes_s, serve_s, warmup_s = seconds / 3, seconds, SERVE_WARMUP_S
    else:
        passes_s, serve_s, warmup_s = seconds, 0.0, 0.0
    probe_job = {
        "workload": name,
        "trace": False,
        "programs": [
            {"name": p.name, "source": p.source, "level": p.level}
            for p in programs
        ],
    }
    worker_job = {
        "workload": name, "seed": seed, "trace": trace,
        "passes_s": passes_s, "serve_s": serve_s,
        "serve_warmup_s": warmup_s, "programs": entries,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        if trace:
            # A traced cold start, then a warm start from the same cache.
            cache = scratch / "probe-cache"
            probes = [
                run_script("probe.py", dict(probe_job, trace=True),
                           scratch, "probe-cold", cache, 0),
                run_script("probe.py", probe_job, scratch, "probe-warm",
                           cache, 1),
            ]
        else:
            probes = [
                run_script("probe.py",
                           probe_job if i < HASHED
                           else dict(probe_job, programs=[]),
                           scratch, f"probe-{i}",
                           scratch / f"probe-cache-{i}", i + 1)
                for i in range(PROBES)
            ]
        result = run_script("worker.py", worker_job, scratch, "worker",
                            scratch / "worker-cache", 0)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    hashes = [probe["hashes"] for probe in probes if probe["hashes"]]
    hashes.append({n: r["sha256"] for n, r in result["programs"].items()})
    mismatches = sum(
        1 for p in programs if len({h[p.name] for h in hashes}) > 1
    )
    metrics = dict(result["metrics"])
    if trace:
        cold, warm = probes

        def steps(*names: str) -> float:
            return sum(cold["steps"].get(name, 0.0) for name in names)

        metrics.update({
            "tables.spec_parse_s": steps(
                "parse_spec", "check_spec", "build_sdts"),
            "tables.automaton_s": steps("build_automaton"),
            "tables.slr_s": steps("build_parse_tables"),
            "tables.compress_s": steps("compress_tables"),
            "tables.specialize_emit_s": steps("emit_module", "load_module"),
            "tables.warm_load_s": warm["build_s"],
            "tables.nstates": cold["nstates"],
            "determinism_mismatches": mismatches,
        })
        write_chrome_trace(
            OUT / f"trace-{name}.json", result["events"] + cold["events"],
            {1: "worker: traced passes and level sweep",
             2: "serve clients", 3: "set-up probe (cold start)"},
        )
    else:
        metrics["setup_s"] = statistics.median(p["setup_s"] for p in probes)
    failures = list(result["failures"])
    if mismatches:
        failures.append(f"{mismatches} programs compiled to different "
                        f"object code under different PYTHONHASHSEED values")
    attempted = result["attempted"] + len(programs)
    failed = result["failed"] + mismatches
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "failures": failures,
        "programs": {
            p.name: dict(level=p.level, kind=p.kind,
                         **result["programs"][p.name])
            for p in programs
        },
    }


def _finite(value: float) -> float:
    return value if math.isfinite(value) else sys.float_info.max


def select_metrics(entry: Dict[str, object], wanted: List[Dict[str, str]]
                   ) -> Dict[str, Dict[str, object]]:
    """The metrics BENCHMARK.json names, in its order, with their units."""
    measured = entry["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {
        m["name"]: {"value": _finite(float(measured[m["name"]])),
                    "unit": m["unit"]}
        for m in wanted
    }


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=P.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=P.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="must be run_seconds of BENCHMARK.json, which "
                        "fixes the run length")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", type=Path, help="write the full report here")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    spec = benchmark_spec()
    seconds = spec["run_seconds"]
    if args.seconds is not None and args.seconds != seconds:
        parser.error(f"--seconds must be run_seconds ({seconds}): "
                     f"both sides of a comparison measure for as long")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the compiler's sources are missing ({SRC / 'repro'})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = P.WORKLOADS if args.workload == "all" else (args.workload,)
    report = {"seed": args.seed, "seconds": seconds, "trace": args.trace,
              "smoke": args.smoke, "workloads": {}}
    for name in names:
        entry = run_workload(name, args.seed, seconds, bool(args.trace),
                             args.smoke)
        entry["metrics"] = select_metrics(entry, wanted)
        report["workloads"][name] = entry
        for metric, value in entry["metrics"].items():
            print(f"{name:<17} {metric:<38} {value['value']:>18.6f} "
                  f"{value['unit']}")
        for failure in entry["failures"]:
            print(f"{name}: FAILED: {failure}", file=sys.stderr)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    entries = report["workloads"]
    summary = {
        "correct": all(e["correct"] for e in entries.values()),
        "attempted": sum(e["attempted"] for e in entries.values()),
        "failed": sum(e["failed"] for e in entries.values()),
        "metrics": (
            entries[names[0]]["metrics"] if len(names) == 1 else {
                f"{name}/{metric}": value
                for name, entry in entries.items()
                for metric, value in entry["metrics"].items()
            }
        ),
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
