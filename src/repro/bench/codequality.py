"""Generated-code quality benchmark: how good is the emitted S/370 code?

The paper's evaluation (section 6) compares CoGG-generated code against
the hand-written PascalVS compiler and argues table-driven selection
costs little code quality.  This lane makes the reproduction's version
of that claim measurable and regression-proof: for every bench workload
it compiles six ways --

* ``table_O0``   -- table-driven selection, peephole off,
* ``table_O1``   -- table-driven selection + the peephole pass,
* ``table_O2``   -- peephole + the global CFG/dataflow optimizer,
* ``table_O3``   -- -O2 plus global CSE and the liveness-planned
  register allocator,
* ``table_O4``   -- -O3 plus interprocedural effect summaries
  (:mod:`repro.opt.summaries`) and spill rematerialization,
* ``baseline``   -- the hand-written tree generator,

runs each on the simulator, and records **executed instructions**
(:class:`~repro.machines.s370.simulator.SimResult` steps), **code
bytes**, **spill traffic** (stores and reloads counted off the emitted
comments), and the peephole's **per-rule hit counts**.  Everything is
gated on all lanes producing identical program output; schema 2 added
the -O2-never-worse-than-O1 gates, and schema 3 mirrors them one level
up: -O3 never executes more instructions than -O2 anywhere, beats it
strictly on at least two workloads, eliminates spill stores on at
least one, and no lane may have lost an optimization level
(``stats["degraded"]``).  Schema 4
repeats the ladder for -O4: never worse than -O3 anywhere, strictly
better on at least two workloads (the multi-routine ``call_heavy``
workload among them -- the interprocedural win must be real), and
rematerialization must eliminate spill stores relative to -O3 on at
least one workload.  A report whose gates are false fails
``bench codequality --validate`` in CI, and ``--compare OLD NEW``
turns two reports into a per-workload delta table with a nonzero exit
on any quality regression; lanes that exist only in the newer report
(e.g. ``table_O4`` against a schema-3 baseline) are shown as new, not
counted as regressions.

The JSON (``BENCH_codequality.json``) is schema-versioned like the
speed report so trajectories across commits stay comparable.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro.bench.speed import _git_rev, _machine_info

#: Bump when the JSON layout changes incompatibly.
SCHEMA_VERSION = 4

DEFAULT_REPORT = "BENCH_codequality.json"

LANES = (
    "table_O0", "table_O1", "table_O2", "table_O3", "table_O4",
    "baseline",
)


def quality_workloads() -> List[Tuple[str, str]]:
    """(name, source) pairs every lane must agree on."""
    from repro.bench import workloads as W

    return [
        ("appendix1_equation", W.appendix1_equation()),
        ("appendix1_fragment", W.appendix1_fragment()),
        ("straightline(60)", W.straightline(60, seed=3)),
        ("expression_chain(12)", W.expression_chain(12)),
        ("branch_ladder(40)", W.branch_ladder(40)),
        ("array_kernel(12)", W.array_kernel(12)),
        ("cse_workload(4)", W.cse_workload(4)),
        ("loop_kernel(300)", W.loop_kernel(300)),
        ("chain_loop(400)", W.chain_loop(400)),
        ("register_pressure(20)", W.register_pressure(20)),
        ("call_heavy(30)", W.call_heavy(30)),
        ("literal_pressure(22)", W.literal_pressure(22)),
    ]


def _measure_workload(
    name: str, source: str, variant: str
) -> Dict[str, Any]:
    from repro.baseline.treegen import compile_baseline
    from repro.errors import CodeGenError
    from repro.pascal.compiler import compile_source

    lanes: Dict[str, Any] = {}
    outputs: Dict[str, str] = {}

    for lane, opt_level in (
        ("table_O0", 0), ("table_O1", 1), ("table_O2", 2),
        ("table_O3", 3), ("table_O4", 4),
    ):
        compiled = compile_source(source, variant=variant,
                                  opt_level=opt_level)
        result = compiled.run()
        outputs[lane] = result.output
        regalloc = dict(compiled.stats.get("regalloc", {}))
        lanes[lane] = {
            "executed_instructions": result.steps,
            "code_bytes": len(compiled.module.code),
            "halted": result.halted,
            "peephole": compiled.stats["peephole"],
            "spill_stores": regalloc.get("spill_stores", 0),
            "reloads": regalloc.get("reloads", 0),
            "regalloc_iterations": regalloc.get("iterations", 0),
            "remat_count": regalloc.get("remat_count", 0),
            "degraded": compiled.stats["degraded"],
        }
        if opt_level >= 2:
            lanes[lane]["global"] = compiled.stats["global"]
        if opt_level >= 3:
            lanes[lane]["regalloc"] = regalloc

    try:
        base = compile_baseline(source)
    except CodeGenError as error:
        # The hand-written generator cannot spill: expressions past its
        # register budget are simply out of its language.  Record the
        # refusal -- the table lanes compiling what the baseline cannot
        # is part of the paper's argument, not a measurement failure.
        lanes["baseline"] = {"unsupported": str(error)}
    else:
        result = base.run()
        outputs["baseline"] = result.output
        lanes["baseline"] = {
            "executed_instructions": result.steps,
            "code_bytes": len(base.module.code),
            "halted": result.halted,
            "peephole": {"total": 0, "iterations": 0, "hits": {}},
            "spill_stores": 0,
            "reloads": 0,
        }

    identical = len(set(outputs.values())) == 1
    o0 = lanes["table_O0"]["executed_instructions"]
    o1 = lanes["table_O1"]["executed_instructions"]
    o2 = lanes["table_O2"]["executed_instructions"]
    o3 = lanes["table_O3"]["executed_instructions"]
    o4 = lanes["table_O4"]["executed_instructions"]
    return {
        "workload": name,
        "lanes": lanes,
        "outputs_identical": identical,
        "reduction_O1_vs_O0": (o0 - o1) / o0 if o0 else 0.0,
        "reduction_O2_vs_O1": (o1 - o2) / o1 if o1 else 0.0,
        "reduction_O3_vs_O2": (o2 - o3) / o2 if o2 else 0.0,
        "reduction_O4_vs_O3": (o3 - o4) / o3 if o3 else 0.0,
    }


def run_bench(variant: str = "full") -> Dict[str, Any]:
    """The full code-quality measurement, as one JSON-ready document."""
    per_workload = [
        _measure_workload(name, source, variant)
        for name, source in quality_workloads()
    ]
    rule_totals: Dict[str, int] = {}
    for entry in per_workload:
        hits = entry["lanes"]["table_O1"]["peephole"]["hits"]
        for rule, count in hits.items():
            rule_totals[rule] = rule_totals.get(rule, 0) + count
    global_totals: Dict[str, int] = {}
    for entry in per_workload:
        hits = entry["lanes"]["table_O2"]["global"]["hits"]
        for rule, count in hits.items():
            global_totals[rule] = global_totals.get(rule, 0) + count
    total_o0 = sum(
        e["lanes"]["table_O0"]["executed_instructions"]
        for e in per_workload
    )
    total_o1 = sum(
        e["lanes"]["table_O1"]["executed_instructions"]
        for e in per_workload
    )
    total_o2 = sum(
        e["lanes"]["table_O2"]["executed_instructions"]
        for e in per_workload
    )
    total_o3 = sum(
        e["lanes"]["table_O3"]["executed_instructions"]
        for e in per_workload
    )
    total_o4 = sum(
        e["lanes"]["table_O4"]["executed_instructions"]
        for e in per_workload
    )
    spills_o2 = sum(
        e["lanes"]["table_O2"]["spill_stores"] for e in per_workload
    )
    spills_o3 = sum(
        e["lanes"]["table_O3"]["spill_stores"] for e in per_workload
    )
    spills_o4 = sum(
        e["lanes"]["table_O4"]["spill_stores"] for e in per_workload
    )
    return {
        "schema_version": SCHEMA_VERSION,
        "git_rev": _git_rev(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "machine": _machine_info(),
        "variant": variant,
        "workloads": per_workload,
        "all_outputs_identical": all(
            e["outputs_identical"] for e in per_workload
        ),
        "rule_totals": rule_totals,
        "global_totals": global_totals,
        "overall_reduction_O1_vs_O0": (
            (total_o0 - total_o1) / total_o0 if total_o0 else 0.0
        ),
        "overall_reduction_O2_vs_O1": (
            (total_o1 - total_o2) / total_o1 if total_o1 else 0.0
        ),
        "overall_reduction_O3_vs_O2": (
            (total_o2 - total_o3) / total_o2 if total_o2 else 0.0
        ),
        "overall_reduction_O4_vs_O3": (
            (total_o3 - total_o4) / total_o3 if total_o3 else 0.0
        ),
        "spill_stores_O2": spills_o2,
        "spill_stores_O3": spills_o3,
        "spill_stores_O4": spills_o4,
    }


def write_report(report: Dict[str, Any], path: Path) -> None:
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def validate_report(report: Dict[str, Any]) -> List[str]:
    """Schema check for CI: returns a list of problems (empty = valid)."""
    problems: List[str] = []
    if report.get("schema_version") != SCHEMA_VERSION:
        problems.append(
            f"schema_version is {report.get('schema_version')!r}, "
            f"expected {SCHEMA_VERSION}"
        )
    for key in ("git_rev", "timestamp", "machine", "workloads",
                "all_outputs_identical", "rule_totals", "global_totals",
                "overall_reduction_O1_vs_O0",
                "overall_reduction_O2_vs_O1",
                "overall_reduction_O3_vs_O2",
                "overall_reduction_O4_vs_O3",
                "spill_stores_O2", "spill_stores_O3",
                "spill_stores_O4"):
        if key not in report:
            problems.append(f"missing top-level key {key!r}")
    if report.get("all_outputs_identical") is not True:
        problems.append("all_outputs_identical is not true")
    workloads = report.get("workloads")
    if not isinstance(workloads, list) or not workloads:
        problems.append("workloads missing or empty")
        return problems
    strictly_lower = 0
    o3_strictly_lower = 0
    spills_reduced = 0
    o4_strictly_lower: List[str] = []
    o4_spills_reduced = 0
    for entry in workloads:
        name = entry.get("workload", "?")
        if entry.get("outputs_identical") is not True:
            problems.append(f"{name}: outputs_identical is not true")
        lanes = entry.get("lanes", {})
        for lane in LANES:
            data = lanes.get(lane)
            if not isinstance(data, dict):
                problems.append(f"{name}: missing lane {lane!r}")
                continue
            if lane == "baseline" and "unsupported" in data:
                continue  # the hand-written generator refused (no spill)
            for field in ("executed_instructions", "code_bytes",
                          "peephole", "spill_stores", "reloads"):
                if field not in data:
                    problems.append(f"{name}.{lane} missing {field!r}")
            if data.get("halted") is not True:
                problems.append(f"{name}.{lane} did not halt")
            for event in data.get("degraded", []):
                problems.append(
                    f"{name}.{lane} fell back to "
                    f"-O{event['fell_back_to']}: {event['reason']}"
                )
        o1_lane = lanes.get("table_O1", {})
        o2_lane = lanes.get("table_O2", {})
        o3_lane = lanes.get("table_O3", {})
        o4_lane = lanes.get("table_O4", {})
        if not isinstance(o2_lane, dict) or not isinstance(o3_lane, dict):
            continue
        if not isinstance(o4_lane, dict):
            continue
        if "global" not in o2_lane:
            problems.append(f"{name}.table_O2 missing 'global'")
        if "regalloc" not in o3_lane:
            problems.append(f"{name}.table_O3 missing 'regalloc'")
        if "regalloc" not in o4_lane:
            problems.append(f"{name}.table_O4 missing 'regalloc'")
        o1 = o1_lane.get("executed_instructions")
        o2 = o2_lane.get("executed_instructions")
        o3 = o3_lane.get("executed_instructions")
        if isinstance(o1, int) and isinstance(o2, int):
            if o2 > o1:
                problems.append(
                    f"{name}: -O2 executed more instructions than -O1 "
                    f"({o2} > {o1})"
                )
            elif o2 < o1:
                strictly_lower += 1
        if isinstance(o2, int) and isinstance(o3, int):
            if o3 > o2:
                problems.append(
                    f"{name}: -O3 executed more instructions than -O2 "
                    f"({o3} > {o2})"
                )
            elif o3 < o2:
                o3_strictly_lower += 1
        o4 = o4_lane.get("executed_instructions")
        if isinstance(o3, int) and isinstance(o4, int):
            if o4 > o3:
                problems.append(
                    f"{name}: -O4 executed more instructions than -O3 "
                    f"({o4} > {o3})"
                )
            elif o4 < o3:
                o4_strictly_lower.append(name)
        s2 = o2_lane.get("spill_stores")
        s3 = o3_lane.get("spill_stores")
        if isinstance(s2, int) and isinstance(s3, int) and s3 < s2:
            spills_reduced += 1
        s4 = o4_lane.get("spill_stores")
        if isinstance(s3, int) and isinstance(s4, int) and s4 < s3:
            o4_spills_reduced += 1
    if strictly_lower < 2:
        problems.append(
            "-O2 beats -O1 strictly on only "
            f"{strictly_lower} workload(s); the gate requires 2"
        )
    if o3_strictly_lower < 2:
        problems.append(
            "-O3 beats -O2 strictly on only "
            f"{o3_strictly_lower} workload(s); the gate requires 2"
        )
    if spills_reduced < 1:
        problems.append(
            "-O3 reduced spill stores on no workload; "
            "the gate requires 1"
        )
    if len(o4_strictly_lower) < 2:
        problems.append(
            "-O4 beats -O3 strictly on only "
            f"{len(o4_strictly_lower)} workload(s); the gate requires 2"
        )
    if not any("call_heavy" in n for n in o4_strictly_lower):
        problems.append(
            "-O4 does not strictly beat -O3 on the call_heavy "
            "workload; the interprocedural gate requires it"
        )
    if o4_spills_reduced < 1:
        problems.append(
            "-O4 reduced spill stores vs -O3 on no workload; "
            "the rematerialization gate requires 1"
        )
    return problems


def render_summary(report: Dict[str, Any]) -> str:
    """A terminal table of the six lanes per workload."""
    lines = [
        "generated-code quality "
        f"(rev {report.get('git_rev', '?')}, "
        f"variant {report.get('variant', '?')})",
        "",
        f"{'workload':<24}{'O0':>8}{'O1':>8}{'O2':>8}{'O3':>8}"
        f"{'O4':>8}{'base':>8}{'spills':>8}{'O4 delta':>10}",
    ]
    for entry in report.get("workloads", []):
        lanes = entry["lanes"]
        s3 = lanes["table_O3"].get("spill_stores", 0)
        s4 = lanes["table_O4"].get("spill_stores", 0)
        base = lanes["baseline"].get("executed_instructions", "-")
        lines.append(
            f"{entry['workload']:<24}"
            f"{lanes['table_O0']['executed_instructions']:>8}"
            f"{lanes['table_O1']['executed_instructions']:>8}"
            f"{lanes['table_O2']['executed_instructions']:>8}"
            f"{lanes['table_O3']['executed_instructions']:>8}"
            f"{lanes['table_O4']['executed_instructions']:>8}"
            f"{base:>8}"
            f"{f'{s3}>{s4}' if s3 != s4 else s4:>8}"
            f"{entry.get('reduction_O4_vs_O3', 0.0):>9.1%}"
        )
    lines.append("")
    lines.append(
        "overall O1 vs O0: "
        f"{report.get('overall_reduction_O1_vs_O0', 0.0):.1%}, "
        "O2 vs O1: "
        f"{report.get('overall_reduction_O2_vs_O1', 0.0):.1%}, "
        "O3 vs O2: "
        f"{report.get('overall_reduction_O3_vs_O2', 0.0):.1%}, "
        "O4 vs O3: "
        f"{report.get('overall_reduction_O4_vs_O3', 0.0):.1%} fewer "
        "executed instructions; spill stores "
        f"{report.get('spill_stores_O2', 0)} -> "
        f"{report.get('spill_stores_O3', 0)} -> "
        f"{report.get('spill_stores_O4', 0)}; outputs identical: "
        f"{report.get('all_outputs_identical')}"
    )
    totals = report.get("rule_totals", {})
    if totals:
        hits = ", ".join(
            f"{rule}={count}"
            for rule, count in sorted(totals.items())
            if count
        )
        lines.append(f"peephole hits: {hits or '(none)'}")
    totals = report.get("global_totals", {})
    if totals:
        hits = ", ".join(
            f"{rule}={count}"
            for rule, count in sorted(totals.items())
            if count
        )
        lines.append(f"global (-O2) hits: {hits or '(none)'}")
    return "\n".join(lines)


#: (lane, field, label, gate) tuples compared per workload.  Fields
#: with ``gate=True`` treat a *rise* between reports as a code-quality
#: regression; ``gate=False`` fields (allocator iteration counts,
#: rematerializations) are informational -- they appear in the delta
#: table but never fail the comparison.
_COMPARE_FIELDS = (
    ("table_O1", "executed_instructions", "O1 steps", True),
    ("table_O2", "executed_instructions", "O2 steps", True),
    ("table_O3", "executed_instructions", "O3 steps", True),
    ("table_O3", "code_bytes", "O3 bytes", True),
    ("table_O3", "spill_stores", "O3 spills", True),
    ("table_O4", "executed_instructions", "O4 steps", True),
    ("table_O4", "spill_stores", "O4 spills", True),
    ("table_O4", "regalloc_iterations", "RA iters", False),
    ("table_O4", "remat_count", "remats", False),
)


def compare_reports(
    old: Dict[str, Any], new: Dict[str, Any]
) -> Tuple[str, List[str]]:
    """Per-workload quality deltas between two reports.

    Returns ``(table, regressions)``; any workload/metric whose value
    *rose* lands in ``regressions``, which the CLI turns into a nonzero
    exit.  Workloads present in only one report are reported but never
    count as regressions (the set legitimately grows over time); lanes
    missing from an *old* report (e.g. schema 3 without ``table_O4``)
    are shown as ``(new)`` and skipped the same way, so comparing
    against a report written by an older schema neither crashes nor
    manufactures spurious regressions.
    """
    old_by_name = {
        e.get("workload"): e for e in old.get("workloads", [])
    }
    new_by_name = {
        e.get("workload"): e for e in new.get("workloads", [])
    }
    regressions: List[str] = []
    lines = [
        "code-quality delta: "
        f"{old.get('git_rev', '?')} -> {new.get('git_rev', '?')}",
        "",
        f"{'workload':<24}" + "".join(
            f"{label:>14}" for _, _, label, _ in _COMPARE_FIELDS
        ),
    ]
    for name, new_entry in new_by_name.items():
        old_entry = old_by_name.get(name)
        cells = []
        for lane, field, label, gate in _COMPARE_FIELDS:
            new_val = new_entry.get("lanes", {}).get(lane, {}).get(field)
            old_val = (
                old_entry.get("lanes", {}).get(lane, {}).get(field)
                if old_entry is not None else None
            )
            if not isinstance(new_val, int):
                cells.append(f"{'-':>14}")
                continue
            if not isinstance(old_val, int):
                cells.append(f"{f'{new_val} (new)':>14}")
                continue
            delta = new_val - old_val
            cells.append(f"{f'{old_val}{delta:+d}':>14}")
            if gate and delta > 0:
                regressions.append(
                    f"{name}: {label} rose {old_val} -> {new_val}"
                )
        lines.append(f"{name:<24}" + "".join(cells))
    for name in old_by_name:
        if name not in new_by_name:
            lines.append(f"{name:<24}  (dropped from new report)")
    lines.append("")
    if regressions:
        lines.append(f"{len(regressions)} regression(s):")
        lines.extend(f"  {r}" for r in regressions)
    else:
        lines.append("no regressions")
    return "\n".join(lines), regressions
