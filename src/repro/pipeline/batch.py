"""Parallel batch-compilation driver.

One spec build serves many compilations -- that is the paper's whole
economic argument, and the persistent build cache
(:mod:`repro.core.buildcache`) makes it true across processes.  This
module exploits it: N Pascal programs are compiled (and optionally
executed) concurrently by a *persistent* process pool
(:mod:`repro.pipeline.pool`) whose workers warm-start from the cache --
no worker ever constructs an automaton or parse table, and the pool
itself is created once per process and reused across batch calls, so
pool spawn is no longer paid per batch.  Every worker reports its
:mod:`repro.core.buildstats` counters measured from before its warm-up,
and the report records the worst case across workers.

Guarantees:

* **Deterministic ordering** -- results come back in input order
  regardless of which worker finished first (``Executor.map``), and a
  parallel batch is byte-identical to a serial one (asserted in
  ``tests/test_pipeline_batch.py`` via object-record digests).
* **Graceful degradation** -- ``jobs=1`` never touches multiprocessing;
  a single-core host skips pool spawn entirely (processes time-slicing
  one core were measured *slower* than serial -- 0.64x in PR 4's
  BENCH_speed record); and any pool-level failure (fork refusal,
  broken pool, pickling trouble) degrades to the serial path with the
  reason recorded in ``BatchReport.degraded_reason``, mirroring the
  per-routine fallback pattern of :mod:`repro.robustness.degrade`:
  degradation may cost time, never correctness or an answer.
* **Per-item fault isolation** -- a program that fails to compile (or
  traps in the simulator) yields a failed :class:`BatchResult` carrying
  the typed error's stable envelope code; the rest of the batch is
  unaffected.

Each item is executed through the same request-scoped entrypoint the
compile server uses (:func:`repro.pipeline.service.execute_request`),
so a batch item and a ``POST /compile`` body are the same unit of work.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError, error_envelope

#: Options every worker (and the serial path) compiles under.
_DEFAULT_OPTS: Dict[str, object] = {
    "variant": "full",
    "table_mode": "dense",
    "optimize": True,
    "checks": False,
    "fallback": False,
    "run": True,
    "max_steps": 2_000_000,
    "profile": False,
    "opt_level": 1,
}

#: Per-worker buildstats baseline, set by the pool initializer
#: (:func:`repro.pipeline.pool._init_worker`) before its warm-up build.
_WORKER_BASELINE: Optional[Dict[str, int]] = None


def _compile_one(
    item: Tuple[str, str],
    opts: Dict[str, object],
    baseline: Optional[Dict[str, int]],
) -> Dict[str, object]:
    """Compile (and optionally run) one program; always picklable."""
    from repro.core import buildstats
    from repro.pipeline.profile import NULL_PROFILER, PhaseProfiler
    from repro.pipeline.service import ServiceRequest, execute_request

    name, source = item
    request = ServiceRequest(
        kind="run" if opts["run"] else "compile",
        name=name,
        source=source,
        variant=str(opts["variant"]),
        table_mode=str(opts["table_mode"]),
        optimize=bool(opts["optimize"]),
        checks=bool(opts["checks"]),
        fallback=bool(opts["fallback"]),
        opt_level=int(opts.get("opt_level", 1)),  # type: ignore[arg-type]
        max_steps=int(opts["max_steps"]),  # type: ignore[arg-type]
    )
    profiler = PhaseProfiler() if opts["profile"] else NULL_PROFILER
    try:
        result = execute_request(request, profiler=profiler)
    except ReproError as error:
        envelope = error_envelope(error)
        result = {
            "name": name,
            "ok": False,
            "error_type": envelope["type"],
            "error_code": envelope["code"],
            "error": envelope["message"],
            "seconds": 0.0,
        }
    if baseline is not None:
        now = buildstats.snapshot()
        result["builds"] = {
            key: now[key] - baseline.get(key, 0)
            for key in ("automaton_builds", "table_builds", "cache_hits")
        }
    return result


def _pool_task(
    shipped: Tuple[Tuple[str, str], Dict[str, object]]
) -> Dict[str, object]:
    """The function shipped to pool workers (module-level, picklable).

    Options travel with each task (not via the pool initializer) so one
    persistent pool can serve successive batches with different options.
    """
    item, opts = shipped
    return _compile_one(item, opts, _WORKER_BASELINE)


@dataclass
class BatchResult:
    """Outcome for one program of a batch."""

    name: str
    ok: bool
    routines: int = 0
    code_bytes: int = 0
    object_sha256: str = ""
    output: Optional[str] = None
    trap: Optional[str] = None
    steps: int = 0
    error_type: str = ""
    #: stable envelope code of the typed error (``E_PASCAL_SYNTAX``...).
    error_code: str = ""
    error: str = ""
    seconds: float = 0.0
    fallback_routines: List[str] = field(default_factory=list)
    #: optimization levels given up (``stats["degraded"]`` events).
    degraded_events: List[Dict[str, object]] = field(default_factory=list)
    profile: Dict[str, float] = field(default_factory=dict)
    #: buildstats deltas in the worker that compiled this item
    #: (automaton_builds/table_builds/cache_hits since worker start).
    builds: Dict[str, int] = field(default_factory=dict)

    @classmethod
    def from_dict(cls, raw: Dict[str, object]) -> "BatchResult":
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        return cls(**{k: v for k, v in raw.items() if k in known})


@dataclass
class BatchReport:
    """Everything one batch run produced, in input order."""

    results: List[BatchResult]
    jobs_requested: int
    jobs_used: int
    mode: str                      # "parallel" | "serial"
    wall_s: float
    variant: str
    table_mode: str
    #: why a parallel request ran serially (empty = no degradation).
    degraded_reason: str = ""
    #: the persistent pool already existed (no spawn paid this batch).
    pool_reused: bool = False

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def total_routines(self) -> int:
        return sum(r.routines for r in self.results)

    @property
    def routines_per_s(self) -> float:
        return self.total_routines / self.wall_s if self.wall_s > 0 else 0.0

    def worker_builds(self) -> Dict[str, int]:
        """Worst-case buildstats deltas over every result's worker."""
        worst: Dict[str, int] = {}
        for result in self.results:
            for key, value in result.builds.items():
                worst[key] = max(worst.get(key, 0), value)
        return worst

    def merged_profile(self) -> Dict[str, float]:
        """Summed per-phase seconds across the whole batch."""
        from repro.pipeline.profile import PhaseProfiler

        profiler = PhaseProfiler()
        for result in self.results:
            profiler.merge(result.profile)
        return profiler.as_dict()

    def render(self) -> str:
        from repro.pascal.compiler import describe_degradation

        lines = [
            f"batch: {len(self.results)} programs, "
            f"jobs={self.jobs_used} ({self.mode}"
            + (", pool reused" if self.pool_reused else "")
            + f"), wall {self.wall_s:.2f}s, "
            f"{self.routines_per_s:.1f} routines/s"
        ]
        if self.degraded_reason:
            lines.append(f"  ** degraded to serial: {self.degraded_reason}")
        for result in self.results:
            if result.ok:
                detail = (
                    f"{result.routines} routines, "
                    f"{result.code_bytes} bytes"
                )
                if result.output is not None:
                    detail += f", {result.steps} steps"
                lines.append(
                    f"  ok   {result.name:<24s} "
                    f"({detail}, {result.seconds:.3f}s)"
                )
                lines.extend(
                    f"       ** degraded: {describe_degradation(event)}"
                    for event in result.degraded_events
                )
            else:
                reason = (
                    f"{result.error_type}: {result.error}"
                    if result.error_type
                    else f"trapped: {result.trap}"
                )
                lines.append(f"  FAIL {result.name:<24s} {reason}")
        return "\n".join(lines)


def load_sources(paths: Sequence[Path]) -> List[Tuple[str, str]]:
    """Read (name, source) pairs for the CLI, in argument order."""
    return [(path.name, path.read_text()) for path in paths]


def compile_batch(
    sources: Sequence[Tuple[str, str]],
    jobs: Optional[int] = None,
    variant: str = "full",
    table_mode: str = "dense",
    optimize: bool = True,
    checks: bool = False,
    fallback: bool = False,
    run: bool = True,
    max_steps: int = 2_000_000,
    profile: bool = False,
    start_method: Optional[str] = None,
    opt_level: int = 1,
    force_parallel: bool = False,
) -> BatchReport:
    """Compile a batch of (name, source) programs, N at a time.

    ``jobs=None`` uses the host's CPU count; ``jobs=1`` is the strictly
    serial lane (no multiprocessing import even happens).  On a
    single-core host a parallel request is served serially too -- pool
    spawn is pure overhead there -- unless ``force_parallel`` insists
    (tests and the bench use it to exercise the real pool anywhere).
    ``start_method`` picks the multiprocessing context (``"fork"``,
    ``"spawn"``...) -- the default is the platform's; tests use
    ``"spawn"`` to prove workers warm-start from the *persistent* cache
    rather than from forked parent memory.
    """
    opts = dict(
        _DEFAULT_OPTS,
        variant=variant,
        table_mode=table_mode,
        optimize=optimize,
        checks=checks,
        fallback=fallback,
        run=run,
        max_steps=max_steps,
        profile=profile,
        opt_level=opt_level,
    )
    cpu_count = os.cpu_count() or 1
    jobs_requested = jobs if jobs is not None else cpu_count
    jobs_requested = max(1, jobs_requested)
    items = list(sources)

    # Pre-warm the persistent cache (and this process's memo) so pool
    # workers -- and the serial lane -- find the artifact ready.  A
    # build failure here is a real spec/table error and propagates.
    from repro.core import buildstats
    from repro.pascal.compiler import cached_build

    cached_build(variant, table_mode=table_mode)
    serial_baseline = buildstats.snapshot()

    degraded_reason = ""
    pool_reused = False
    raw_results: Optional[List[Dict[str, object]]] = None
    jobs_used = 1
    mode = "serial"
    want_parallel = jobs_requested > 1 and bool(items)
    if want_parallel and cpu_count == 1 and not force_parallel:
        want_parallel = False
        degraded_reason = (
            f"single-core host: pool spawn skipped "
            f"(jobs={jobs_requested} requested)"
        )
    start = time.perf_counter()
    if want_parallel:
        from repro.pipeline import pool as pool_mod

        try:
            workers = min(jobs_requested, len(items))
            executor, pool_reused = pool_mod.acquire(
                workers, opts, start_method=start_method
            )
            raw_results = list(
                executor.map(_pool_task, [(item, opts) for item in items])
            )
            jobs_used = workers
            mode = "parallel"
        except ReproError:
            raise
        except Exception as error:  # noqa: BLE001 -- degrade, don't die
            degraded_reason = f"{type(error).__name__}: {error}"
            pool_mod.discard_broken()
            pool_reused = False
            raw_results = None
    if raw_results is None:
        raw_results = [
            _compile_one(item, opts, serial_baseline) for item in items
        ]
    wall_s = time.perf_counter() - start

    return BatchReport(
        results=[BatchResult.from_dict(raw) for raw in raw_results],
        jobs_requested=jobs_requested,
        jobs_used=jobs_used,
        mode=mode,
        wall_s=wall_s,
        variant=variant,
        table_mode=table_mode,
        degraded_reason=degraded_reason,
        pool_reused=pool_reused,
    )
