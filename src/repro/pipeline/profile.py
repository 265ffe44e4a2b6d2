"""Lightweight phase profiler for the compile-and-execute pipeline.

The paper evaluates the system by *running* generated code (section 4
timings), so a throughput claim about this reproduction has to say
*where* the time goes, not just how much there is.  The profiler is a
named-phase stopwatch threaded through the compiler driver and the
simulator entry points:

====================  =====================================================
phase                 covers
====================  =====================================================
``frontend``          Pascal lexing, parsing, static semantics
``shape``             IF generation (storage shaping) + the CSE optimizer
``linearize``         prefix-form linearization with interned symbol codes
``select``            the table-driven code generator (the skeletal parse)
``peephole``          the post-selection peephole pass (``-O1``)
``assemble``          branch resolution, encoding, object-record emission
``simulate``          the S/370 simulator run
====================  =====================================================

Passing no profiler costs nothing on the hot path: the driver uses a
shared no-op instance whose ``phase`` context manager is a reusable
constant.  Durations accumulate, so one profiler can aggregate several
compilations (the batch driver does exactly that per worker).
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional

#: Canonical phase order for rendering and for the bench schema.
PHASES = (
    "frontend",
    "shape",
    "linearize",
    "select",
    "peephole",
    "assemble",
    "simulate",
)


class _Timer:
    """Context manager recording one phase interval into a profiler."""

    __slots__ = ("_profiler", "_name", "_start")

    def __init__(self, profiler: "PhaseProfiler", name: str):
        self._profiler = profiler
        self._name = name

    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        elapsed = time.perf_counter() - self._start
        phases = self._profiler.phases
        phases[self._name] = phases.get(self._name, 0.0) + elapsed


class _NullTimer:
    """A reusable do-nothing context manager (the profiler-off path)."""

    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_TIMER = _NullTimer()


class PhaseProfiler:
    """Accumulating named-phase stopwatch.

    ``with profiler.phase("select"): ...`` adds the elapsed wall time to
    the ``select`` bucket.  Re-entering a phase accumulates, so driving
    many compilations through one profiler yields totals.
    """

    __slots__ = ("phases",)

    enabled = True

    def __init__(self, phases: Optional[Dict[str, float]] = None):
        self.phases: Dict[str, float] = dict(phases or {})

    def phase(self, name: str) -> _Timer:
        return _Timer(self, name)

    def as_dict(self) -> Dict[str, float]:
        """Phase -> seconds, canonical phases first, extras after."""
        ordered = {p: self.phases[p] for p in PHASES if p in self.phases}
        for name in sorted(self.phases):
            if name not in ordered:
                ordered[name] = self.phases[name]
        return ordered

    def total(self) -> float:
        return sum(self.phases.values())

    def merge(self, other: Dict[str, float]) -> None:
        """Fold another profiler's phase dict into this one."""
        for name, seconds in other.items():
            self.phases[name] = self.phases.get(name, 0.0) + seconds

    def render(self) -> str:
        """A terminal-friendly per-phase table with percentages."""
        total = self.total()
        lines = ["phase        time        share"]
        for name, seconds in self.as_dict().items():
            share = 100.0 * seconds / total if total > 0 else 0.0
            lines.append(f"{name:<12s} {1000 * seconds:>8.2f} ms  {share:>5.1f}%")
        lines.append(f"{'total':<12s} {1000 * total:>8.2f} ms  100.0%")
        return "\n".join(lines)


class _NullProfiler(PhaseProfiler):
    """Shared profiler-off instance: ``phase`` is a constant no-op."""

    __slots__ = ()

    enabled = False

    def __init__(self):
        super().__init__()

    def phase(self, name: str) -> _NullTimer:  # type: ignore[override]
        return _NULL_TIMER


#: The instance the driver uses when no profiler is supplied.
NULL_PROFILER = _NullProfiler()


def median_phases(dicts: Iterable[Dict[str, float]]) -> Dict[str, float]:
    """Per-phase medians across several profile dicts (bench support)."""
    import statistics

    samples: Dict[str, List[float]] = {}
    for d in dicts:
        for name, seconds in d.items():
            samples.setdefault(name, []).append(seconds)
    return {
        name: statistics.median(values)
        for name, values in sorted(samples.items())
    }
