"""Pipeline orchestration: request-scoped compiles, batching, profiling.

The compiler driver (:mod:`repro.pascal.compiler`) turns *one* source
program into *one* simulated run.  This package is the layer above it,
for throughput-oriented use:

* :mod:`repro.pipeline.service` -- the request-scoped compile
  entrypoint: one :class:`~repro.pipeline.service.ServiceRequest`
  (compile / run / lint) in, one JSON-ready payload out, with
  cooperative deadlines and fault hooks enforced at phase boundaries.
  Shared by the batch driver and the compile server, so a batch item
  and a ``POST /compile`` body are the same unit of work.
* :mod:`repro.pipeline.profile` -- a lightweight phase profiler
  (front end -> shape/CSE -> linearize -> select -> assemble/link ->
  simulate) threaded through the driver, surfaced as ``--profile`` on
  the ``run``/``compile``/``batch`` CLI commands and recorded into
  ``BENCH_speed.json``'s ``end_to_end`` section.
* :mod:`repro.pipeline.pool` -- the persistent process pool: created
  once per process, reused across batch calls, workers warm-started
  from the persistent build cache (zero automaton/table constructions
  per worker).
* :mod:`repro.pipeline.batch` -- the parallel batch-compilation driver
  over that pool, with deterministic output ordering and graceful
  degradation to serial execution (single-core hosts skip the pool
  entirely) when the pool cannot help.

Only the profiler, which every compile threads through, is re-exported
here; the other modules are imported by name, so a compile loads none
of them.
"""

from repro.pipeline.profile import PHASES, PhaseProfiler

__all__ = ["PHASES", "PhaseProfiler"]
