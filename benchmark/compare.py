#!/usr/bin/env python3
"""Compare two sets of benchmark runs against the bounds of BENCHMARK.json.

    python3 benchmark/compare.py A B
    python3 benchmark/compare.py --repeat N

``A`` and ``B`` are reports written by ``run.py --out``, or directories
of them; each report is one run (one seed) of one or more workloads.
Each row is one workload and one end-to-end metric: the median of each
set, the change from A to B, each set's spread (the distance between the
first and third quartile as a share of the median) and a verdict:

* ``worse`` / ``improved``: B's median is worse / better than A's by
  more than the metric's bound;
* ``unresolved``: a spread is wider than the bound, so the medians
  cannot be told apart -- unless every run of B is better than every run
  of A, which reads ``improved``;
* ``same``: otherwise.

Exits 1 when any row is ``worse``.  ``--repeat N`` runs every workload
untraced N times over the same ``RUNS`` seeds and compares the first set
with each later one: the sets agree when every row reads ``same``, and
the exit status is 1 when they do not.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

Runs = Dict[str, Dict[str, List[float]]]  # workload -> metric -> values

#: Runs (seeds 1..RUNS) per set of ``--repeat``; with three, one disturbed
#: run already widens a spread past its bound.
RUNS = 5


def load(path: Path) -> Runs:
    """Every run under ``path`` (a report file or a directory of them)."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs: Runs = {}
    for file in files:
        report = json.loads(file.read_text())
        for workload, entry in report["workloads"].items():
            for metric, value in entry["metrics"].items():
                runs.setdefault(workload, {}).setdefault(metric, []).append(
                    value["value"])
    return runs


def spread(values: List[float]) -> float:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    lower = better == "lower"
    base = statistics.median(a)
    change = (statistics.median(b) - base) / abs(base) if base else 0.0
    if not lower:
        change = -change  # positive change is always the worse direction
    if (max(b) < min(a)) if lower else (min(b) > max(a)):
        return "improved" if change < -bound else "same"
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "improved"
    return "same"


def compare(a: Runs, b: Runs,
            spec: Dict[str, object]) -> List[Dict[str, object]]:
    rows = []
    for workload in sorted(set(a) & set(b)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in a[workload] or name not in b[workload]:
                continue
            va, vb = a[workload][name], b[workload][name]
            ma, mb = statistics.median(va), statistics.median(vb)
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "a": ma, "b": mb,
                "change": (mb - ma) / abs(ma) if ma else 0.0,
                "spread_a": spread(va), "spread_b": spread(vb),
                "bound": metric["bound"],
                "verdict": verdict(va, vb, metric["better"], metric["bound"]),
            })
    return rows


def render(rows: List[Dict[str, object]]) -> str:
    lines = [
        f"{'workload':<17} {'metric':<12} {'A median':>14} {'B median':>14} "
        f"{'change':>8} {'spread A':>9} {'spread B':>9} {'bound':>7}  verdict"
    ]
    for r in rows:
        lines.append(
            f"{r['workload']:<17} {r['metric']:<12} {r['a']:>14.6g} "
            f"{r['b']:>14.6g} {r['change']:>+8.2%} {r['spread_a']:>9.2%} "
            f"{r['spread_b']:>9.2%} {r['bound']:>7.2%}  {r['verdict']}"
        )
    return "\n".join(lines)


def repeat(sets: int) -> List[Path]:
    """Run every workload ``sets`` x ``RUNS`` times; one directory per set."""
    base = HERE / "out" / "repeat"
    dirs = []
    for index in range(1, sets + 1):
        directory = base / f"set{index}"
        directory.mkdir(parents=True, exist_ok=True)
        for old in directory.glob("*.json"):
            old.unlink()
        for seed in range(1, RUNS + 1):
            subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--seed", str(seed),
                 "--out", str(directory / f"seed{seed}.json")],
                stdout=subprocess.DEVNULL, check=True,
            )
        dirs.append(directory)
    return dirs


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, nargs="?")
    parser.add_argument("b", type=Path, nargs="?")
    parser.add_argument("--repeat", type=int, metavar="N")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.repeat:
        dirs = repeat(args.repeat)
        first, later = load(dirs[0]), [load(d) for d in dirs[1:]]
        agree = True
        for index, other in enumerate(later, start=2):
            rows = compare(first, other, spec)
            print(f"set 1 vs set {index}:\n{render(rows)}\n")
            agree &= all(r["verdict"] == "same" for r in rows)
        print("sets agree" if agree else "sets DISAGREE")
        return 0 if agree else 1
    if args.a is None or args.b is None:
        parser.error("give two report sets A and B, or --repeat N")
    rows = compare(load(args.a), load(args.b), spec)
    print(render(rows))
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
