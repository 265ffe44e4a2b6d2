"""Set-up probe: time a fresh interpreter until its first compile could start.

    python benchmark/probe.py JOB.json RESULT.json

The clock starts at the first line of this script after a host-speed
calibration (``calibration.py``), before anything from ``repro`` is
imported, and stops when the code generator for the full S/370 spec is
ready (for ``serve_mixed``: when the compile server is listening); a
second calibration follows, and the times are scaled to reference
seconds by the mean of the two.  ``run.py`` starts the probe with an
empty ``REPRO_CACHE_DIR`` for a cold start, or with a filled one for a
warm start.  After the clock stops, the probe compiles every program of
the workload and reports the SHA-256 of each object module, which
``run.py`` compares across probes started under different
``PYTHONHASHSEED`` values.  A traced probe also wraps the
table-construction functions, so a cold start reports the time of each
construction step.
"""

import statistics
import time

from calibration import REFERENCE_S, calibrate

BEFORE = statistics.median(calibrate() for _ in range(3))
START = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer, chrome_events, wrap  # noqa: E402

#: Table-construction steps, at every binding their callers resolve:
#: ``buildcache.cached_build`` parses the spec (to fingerprint its
#: grammar) and on a miss ``cogg.build_code_generator`` parses it again.
TABLE_STEPS = {
    "parse_spec": ("repro.core.speclang.parser", "repro.core.cogg"),
    "check_spec": ("repro.core.speclang.typecheck", "repro.core.cogg"),
    "build_sdts": ("repro.core.buildcache", "repro.core.cogg"),
    "build_automaton": ("repro.core.cogg",),
    "build_parse_tables": ("repro.core.cogg",),
    "compress_tables": ("repro.core.cogg",),
    "emit_module": ("repro.core.specialize",),
    "load_module": ("repro.core.specialize",),
}


def table_targets():
    import importlib

    return [
        (importlib.import_module(module), name, name, None)
        for name, modules in TABLE_STEPS.items()
        for module in modules
    ]


def main(argv) -> int:
    job = json.loads(Path(argv[0]).read_text())
    tracer = Tracer()
    restore = wrap(tracer, table_targets()) if job["trace"] else None
    from repro.pascal.compiler import cached_build, compile_source

    built = time.perf_counter()
    build = cached_build("full")
    ready = time.perf_counter()
    build_s = ready - built
    if job["workload"] == "serve_mixed":
        from repro.server.app import ServerConfig
        from repro.server.harness import start_server
        from serving import JOBS

        handle = start_server(ServerConfig(port=0, jobs=JOBS))
        ready = time.perf_counter()
        handle.stop()
    after = statistics.median(calibrate() for _ in range(3))
    scale = REFERENCE_S / ((BEFORE + after) / 2)
    if restore is not None:
        restore()
    steps = {}
    for span in tracer.spans:
        steps[span.name] = steps.get(span.name, 0.0) + span.duration * scale
    hashes = {
        p["name"]: hashlib.sha256(
            compile_source(p["source"], opt_level=p["level"]).object_records
        ).hexdigest()
        for p in job["programs"]
    }
    Path(argv[1]).write_text(json.dumps({
        "setup_s": (ready - START) * scale,
        "build_s": build_s * scale,
        "steps": steps,
        "nstates": build.tables.nstates,
        "hashes": hashes,
        "events": chrome_events(tracer, pid=3, tid=0, origin=START),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
