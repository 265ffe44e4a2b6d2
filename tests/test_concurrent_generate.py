"""Concurrent ``generate()`` calls on one shared code generator.

The compile server runs two worker slots over a single
:class:`~repro.core.codegen.parser_rt.CodeGenerator`.  Each call's
emission state -- including the reduction whose bindings a register
shuffle patches -- must belong to that call alone, so a compile that
interleaves with another one still emits exactly the single-threaded
object code.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

from repro.bench.workloads import (
    literal_pressure,
    register_pressure,
    straightline,
)
from repro.pascal.compiler import cached_build, compile_source

# Spill- and shuffle-heavy programs: every spill or register shuffle
# patches the bindings of the reduction in progress.  Before those
# bindings moved onto the call's own state, about one compile in ten
# of this mix came out wrong.
SOURCES = [
    register_pressure(20),
    literal_pressure(22),
    straightline(60, seed=2),
]
ROUNDS = 30


def _object_code(source: str, build) -> bytes:
    return compile_source(source, build=build, opt_level=0).object_records


def test_two_threads_match_single_threaded_compile():
    build = cached_build()
    expected = {source: _object_code(source, build) for source in SOURCES}
    work = SOURCES * ROUNDS
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(
                pool.map(
                    lambda source: _object_code(source, build), work,
                    timeout=300,
                )
            )
    finally:
        sys.setswitchinterval(interval)
    mismatches = [
        i for i, (source, got) in enumerate(zip(work, results))
        if got != expected[source]
    ]
    assert mismatches == []
