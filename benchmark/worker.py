"""Measure one workload in a fresh interpreter.

    python benchmark/worker.py JOB.json RESULT.json

``run.py`` writes the job (programs, inputs, oracle outputs, run length)
and starts this script with its own empty ``REPRO_CACHE_DIR``.  One
discarded warm-up pass checks every program's object code against
``compile_source`` and its output against the oracle.  Then the worker
compiles and runs the programs pass after pass until the run length is
used up; ``serve_mixed`` then serves the same programs.  A traced run first
measures untraced passes, then wraps the compiler's inner layers (see
:func:`inner_targets`), measures traced passes and a -O2/-O3/-O4 level
sweep of the same programs, and puts the wrappers back.

Every op is bracketed by host-speed calibrations (``calibration.py``)
and its times are scaled to reference seconds by their mean.  Timings are
reported as medians over passes; the end-to-end times take the median
per program and sum over programs.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

import programs as P
from calibration import REFERENCE_S, calibrate
from layers import COMPILE_SPANS, RUN_SPANS, compile_layers, run_layers
from spans import Tracer, chrome_events, quantile, wrap

#: The dataflow solvers a compile runs (``reaching_defs`` serves only the
#: SL05x sanitizer, never a compile).
SOLVERS = (
    "liveness", "available_stores", "available_copies",
    "memory_deadness", "available_exprs",
)

#: Levels of the sweep; the optimizer layers are read at the last one.
SWEEP_LEVELS = (2, 3, 4)


def _annotate_generate(span, args, result) -> None:
    tokens = args[1] if len(args) > 1 else ()
    span.args = {
        "tokens": len(tokens) if isinstance(tokens, list) else 0,
        "specialized": bool(result.stats.get("specialized", False)),
    }


def inner_targets():
    """Functions inside the layers, at the attribute each caller resolves."""
    from repro.core.codegen.parser_rt import CodeGenerator
    from repro.opt import dataflow, globalopt, spillplan, summaries

    targets = [
        (CodeGenerator, "generate", "CodeGenerator.generate",
         _annotate_generate),
        (globalopt, "build_cfg", "build_cfg", None),
        (spillplan, "build_cfg", "build_cfg", None),
        (summaries, "compute_summaries", "compute_summaries", None),
    ]
    targets += [
        (dataflow, name, f"dataflow.{name}", None) for name in SOLVERS
    ]
    return targets


class Pass:
    """Sums over one pass of the workload's programs."""

    def __init__(self) -> None:
        self.compile_s = 0.0
        self.run_s = 0.0
        self.counts: Counter = Counter()
        self.total: Counter = Counter()  # span durations by name
        self.own: Counter = Counter()  # span self times by name
        self.calls: Counter = Counter()  # spans by name
        self.peephole: Counter = Counter()  # peephole self time by program
        # Per op, in program order: the whole op, its time inside layer
        # calls, and the compile and simulator shares of that.
        self.latencies: List[float] = []
        self.work: List[float] = []
        self.op_compile: List[float] = []
        self.op_run: List[float] = []
        self.generate_tokens = 0
        self.specialized = 0


class Workload:
    def __init__(self, job: Dict[str, object]):
        from repro.pascal.compiler import cached_build

        self.programs = [P.Program(**p["program"]) for p in job["programs"]]
        self.expected: Dict[str, Optional[str]] = {
            p["program"]["name"]: p["expected"] for p in job["programs"]
        }
        self.build = cached_build("full")
        self.records: Dict[str, bytes] = {}
        self.reference: Dict[str, Dict[str, int]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def problem(self, program: P.Program, result) -> Optional[str]:
        """What is wrong with one run's result, or ``None``."""
        if result.trap is not None:
            return f"trap {result.trap}"
        if result.output != self.expected[program.name]:
            return (f"output {result.output!r} != oracle "
                    f"{self.expected[program.name]!r}")
        return None

    def warm_up(self) -> None:
        """The discarded pass: byte identity with ``compile_source``, the
        oracle check, and the reference counts later passes must repeat."""
        from repro.pascal.compiler import compile_source

        tracer = Tracer()
        for program in self.programs:
            self.attempted += 1
            compiled = compile_layers(
                tracer, self.build, program.source, program.level,
                count=True,
            )
            reference = compile_source(program.source, opt_level=program.level)
            problem = None
            if compiled.records != reference.object_records:
                problem = "object code differs from compile_source"
            steps = 0
            if program.kind == "run":
                result = run_layers(tracer, compiled, program.inputs)
                problem = problem or self.problem(program, result)
                steps = result.steps
            if problem:
                self.fail(f"{program.name} -O{program.level}: {problem}")
            self.records[program.name] = compiled.records
            self.reference[program.name] = {
                "code_bytes": len(compiled.module.code),
                "steps": steps,
                "instructions": compiled.instructions,
            }

    def one_pass(self, tracer: Tracer, level: Optional[int] = None) -> Pass:
        """Compile (and run) every program once.  ``level`` overrides the
        programs' own levels (the sweep); own-level passes must repeat the
        warm-up's object code and step counts exactly."""
        record = Pass()
        first = len(tracer.spans)
        scales: Dict[int, float] = {}  # by op id
        gc.collect()
        before = calibrate()
        for program in self.programs:
            at = program.level if level is None else level
            tracer.new_op(program.name)
            op = tracer.begin("op")
            compiled = compile_layers(tracer, self.build, program.source, at)
            result = (
                run_layers(tracer, compiled, program.inputs)
                if program.kind == "run" else None
            )
            tracer.end(op)
            self.attempted += 1
            problem = (
                self.problem(program, result) if result is not None else None
            )
            if not problem and level is None and (
                compiled.records != self.records[program.name]
                or (result is not None and result.steps
                    != self.reference[program.name]["steps"])
            ):
                problem = "object code or step count differs from warm-up"
            if problem:
                self.fail(f"{program.name} -O{at}: {problem}")
            self._count(record.counts, compiled, result)
            gc.collect()
            after = calibrate()
            scales[tracer.op] = REFERENCE_S / ((before + after) / 2)
            before = after
        self._summarize(tracer, first, record, scales)
        return record

    @staticmethod
    def _count(counts: Counter, compiled, result) -> None:
        counts["code_bytes"] += len(compiled.module.code)
        counts["steps"] += result.steps if result is not None else 0
        counts["if_tokens"] += compiled.tokens
        counts["cse_count"] += compiled.cse_count
        counts["reductions"] += compiled.reductions
        counts["long_branches"] += compiled.module.long_branches
        if compiled.peephole is not None:
            counts["peephole.iterations"] += compiled.peephole.iterations
            counts["peephole.hits"] += compiled.peephole.total
        glob = compiled.globalopt
        if glob is not None:
            counts["globalopt.iterations"] += glob.iterations
            counts["globalopt.hits"] += glob.total
            counts["globalopt.degraded"] += bool(glob.degraded_reason)
            counts["summaries.refined_routines"] += glob.summary_routines
        info = compiled.regalloc
        if info is not None:
            counts["spillplan.compiles"] += 1
            counts["spillplan.spill_events"] += info["spill_events"]
            counts["spillplan.stores_skipped"] += info["spill_stores_skipped"]
            counts["spillplan.remat_count"] += info["remat_count"]
            counts["spillplan.degraded"] += bool(info["degraded_reason"])

    @staticmethod
    def _summarize(tracer: Tracer, first: int, record: Pass,
                   scales: Dict[int, float]) -> None:
        """Sum the pass's spans in reference seconds: each op's spans are
        scaled by the calibrations on either side of that op."""
        spans = tracer.spans[first:]
        own = tracer.self_times(first)
        children: Dict[int, float] = defaultdict(float)
        compile_s: Dict[int, float] = defaultdict(float)  # by op id
        run_s: Dict[int, float] = defaultdict(float)
        for span, self_s in zip(spans, own):
            name = span.name
            scale = scales[span.op]
            duration = span.duration * scale
            self_s *= scale
            record.total[name] += duration
            record.own[name] += self_s
            record.calls[name] += 1
            if name == "peephole":
                record.peephole[tracer.labels[span.op]] += self_s
            children[span.parent] += duration
            if name in COMPILE_SPANS:
                compile_s[span.op] += duration
            elif name in RUN_SPANS:
                run_s[span.op] += duration
            elif name == "CodeGenerator.generate":
                record.generate_tokens += span.args["tokens"]
                record.specialized += span.args["specialized"]
        for offset, span in enumerate(spans):
            if span.name == "op":
                record.latencies.append(span.duration * scales[span.op])
                record.work.append(children[first + offset])
                record.op_compile.append(compile_s[span.op])
                record.op_run.append(run_s[span.op])
        record.compile_s = sum(record.op_compile)
        record.run_s = sum(record.op_run)

    def passes(self, tracer: Tracer, seconds: float) -> List[Pass]:
        """Passes until ``seconds`` are used up (at least one)."""
        done: List[Pass] = []
        start = time.perf_counter()
        while not done or time.perf_counter() - start < seconds:
            done.append(self.one_pass(tracer))
        return done


def over(passes: List[Pass], value: Callable[[Pass], float]) -> float:
    """The median of one per-pass value (exact for counts)."""
    return statistics.median(value(p) for p in passes)


def per_op(passes: List[Pass], field: str) -> List[float]:
    """The median of each op's ``field`` over passes, in program order."""
    ops = zip(*(getattr(p, field) for p in passes))
    return [statistics.median(op) for op in ops]


def end_to_end(passes: List[Pass]) -> Dict[str, float]:
    """An op is one program compiled, loaded and run.  Times are summed
    over programs from each program's median, and the latency
    percentiles are taken over programs."""
    latencies = per_op(passes, "latencies")
    return {
        "compile_s": sum(per_op(passes, "op_compile")),
        "run_s": sum(per_op(passes, "op_run")),
        "exec_steps": passes[0].counts["steps"],
        "code_bytes": passes[0].counts["code_bytes"],
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": 1000 * quantile(latencies, 0.50),
        "op_p95_ms": 1000 * quantile(latencies, 0.95),
    }


def op_layer(passes: List[Pass]) -> Dict[str, float]:
    """Per-op work (inside layer calls) and wait (between them)."""
    work = [x for p in passes for x in p.work]
    latencies = [x for p in passes for x in p.latencies]
    wait = [t - w for t, w in zip(latencies, work)]
    return {
        "op.work_ms_p50": 1000 * quantile(work, 0.5),
        "op.wait_ms_p50": 1000 * quantile(wait, 0.5),
        "op.latency_p99_ms": 1000 * quantile(latencies, 0.99),
    }


def per_layer(
    work: Workload, own: List[Pass], sweep: Dict[int, List[Pass]],
    untraced_compile_s: float,
) -> Dict[str, float]:
    """Layer metrics: front and back layers from the traced passes at the
    programs' own levels, optimizer layers from the -O4 sweep.  Times are
    self times: a span's duration minus its children's."""
    def ms(passes: List[Pass], *names: str) -> float:
        return 1000 * over(passes, lambda p: sum(p.own[n] for n in names))

    def count(passes: List[Pass], key: str) -> float:
        return over(passes, lambda p: p.counts[key])

    o4 = sweep[4]
    one = own[0]  # for counts, which every pass repeats
    metrics = {
        "pascal.frontend_ms": ms(own, "frontend.parse", "frontend.check"),
        "ir.generate_ms": ms(own, "ir.generate"),
        "ir.optimize_ms": ms(own, "ir.optimize"),
        "ir.linearize_ms": ms(own, "ir.linearize"),
        "ir.if_tokens": count(own, "if_tokens"),
        "ir.cse_count": count(own, "cse_count"),
        "codegen.select_ms": ms(own, "CodeGenerator.generate"),
        "codegen.tokens_per_s": one.generate_tokens / over(
            own, lambda p: p.total["CodeGenerator.generate"]),
        "codegen.reductions": count(own, "reductions"),
        "codegen.specialized_share": (
            one.specialized / one.calls["CodeGenerator.generate"]),
        "spillplan.select_ms": ms(o4, "select"),
        "spillplan.generate_calls_per_compile": (
            o4[0].calls["CodeGenerator.generate"]
            / max(1, o4[0].counts["spillplan.compiles"])),
        "spillplan.degraded": count(o4, "spillplan.degraded"),
        "spillplan.spill_events": count(o4, "spillplan.spill_events"),
        "spillplan.stores_skipped": count(o4, "spillplan.stores_skipped"),
        "spillplan.remat_count": count(o4, "spillplan.remat_count"),
        "peephole.ms": ms(own, "peephole"),
        "peephole.iterations": count(own, "peephole.iterations"),
        "peephole.hits": count(own, "peephole.hits"),
        "globalopt.ms": ms(o4, "globalopt"),
        "globalopt.iterations": count(o4, "globalopt.iterations"),
        "globalopt.degraded": count(o4, "globalopt.degraded"),
        "globalopt.hits": count(o4, "globalopt.hits"),
        "cfg.build_calls": o4[0].calls["build_cfg"],
        "cfg.build_ms": ms(o4, "build_cfg"),
        "summaries.ms": ms(o4, "compute_summaries"),
        "summaries.refined_routines": count(
            o4, "summaries.refined_routines"),
        "asm.resolve_ms": ms(own, "asm.resolve"),
        "asm.write_object_ms": ms(own, "asm.write_object"),
        "asm.long_branches": count(own, "long_branches"),
        "sim.steps_per_s": one.counts["steps"] / over(
            own, lambda p: p.total["sim.run"]),
        "sim.load_ms": ms(own, "sim.load"),
        "trace.overhead_pct": 100 * (
            sum(per_op(own, "op_compile")) / untraced_compile_s - 1),
    }
    for solver in SOLVERS:
        name = f"dataflow.{solver}"
        metrics[f"{name}.calls"] = o4[0].calls[name]
        metrics[f"{name}.ms"] = ms(o4, name)
    # Peephole cost per 1000 selected instructions, on the programs with
    # the most and the fewest of them.
    sizes = {
        name: ref["instructions"] for name, ref in work.reference.items()
    }
    for label, pick in (("largest", max), ("smallest", min)):
        name = pick(sizes, key=lambda n: (sizes[n], n))
        metrics[f"peephole.ms_per_kinstr.{label}"] = 1000 * over(
            own, lambda p: p.peephole[name]
        ) / (sizes[name] / 1000)
    for level in SWEEP_LEVELS:
        metrics[f"level.O{level}.compile_s"] = over(
            sweep[level], lambda p: p.compile_s)
        metrics[f"level.O{level}.exec_steps"] = count(sweep[level], "steps")
    return metrics


def traced_run(work: Workload, seconds: float):
    """Untraced passes, then traced passes and the level sweep; returns
    the per-layer metrics, the traced spans as Chrome events and the
    time their timestamps count from."""
    origin = time.perf_counter()
    untraced = work.passes(Tracer(), seconds)
    tracer = Tracer()
    restore = wrap(tracer, inner_targets())
    try:
        own = work.passes(tracer, seconds)
        sweep: Dict[int, List[Pass]] = {level: [] for level in SWEEP_LEVELS}
        start = time.perf_counter()
        while not sweep[4] or time.perf_counter() - start < seconds:
            for level in SWEEP_LEVELS:
                sweep[level].append(work.one_pass(tracer, level))
    finally:
        restore()
    metrics = op_layer(untraced)
    metrics.update(per_layer(
        work, own, sweep, sum(per_op(untraced, "op_compile"))))
    return metrics, chrome_events(tracer, pid=1, tid=0, origin=origin), origin


def measure(job: Dict[str, object]) -> Dict[str, object]:
    work = Workload(job)
    work.warm_up()
    serve = job["workload"] == "serve_mixed"
    seconds = float(job["passes_s"])
    events: List[Dict[str, object]] = []
    if job["trace"]:
        metrics, events, origin = traced_run(work, seconds)
        if not serve:
            metrics.update({"server.queue_high_watermark": 0,
                            "server.rejections": 0, "server.rebuilds": 0})
    else:
        metrics = end_to_end(work.passes(Tracer(), seconds))
        origin = time.perf_counter()
    if serve:
        from serving import serve_workload

        served = serve_workload(
            work, seed=int(job["seed"]),
            warmup_s=float(job["serve_warmup_s"]),
            seconds=float(job["serve_s"]), origin=origin,
        )
        events += served.events
        # Served requests, not in-process ops, are serve_mixed's ops.
        metrics.update(
            served.layer_metrics() if job["trace"] else served.end_to_end()
        )
    if not job["trace"]:
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        )
    return {
        "attempted": work.attempted,
        "failed": work.failed,
        "failures": work.failures,
        "metrics": metrics,
        "events": events,
        "programs": {
            name: dict(ref, sha256=hashlib.sha256(
                work.records[name]).hexdigest())
            for name, ref in work.reference.items()
        },
    }


def main(argv: List[str]) -> int:
    job = json.loads(Path(argv[0]).read_text())
    Path(argv[1]).write_text(json.dumps(measure(job)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
