"""Process-wide build counters for the CoGG pipeline.

The persistent build cache's contract is behavioral: a warm start must
perform *zero* automaton constructions.  These counters make that
assertable -- table construction, automaton construction and every cache
outcome bump a counter here, and tests snapshot/compare around a build.

This module is deliberately dependency-free (standard library only, no
repro imports): it sits below every layer that reports into it, so it
can never participate in an import cycle.
"""

from __future__ import annotations

from typing import Dict

_COUNTERS: Dict[str, int] = {
    "automaton_builds": 0,   # build_automaton invocations
    "table_builds": 0,       # build_parse_tables invocations
    "compress_runs": 0,      # compress_tables invocations
    "cache_hits": 0,         # persistent artifact reused
    "cache_misses": 0,       # no usable artifact; built fresh
    "cache_corrupt": 0,      # artifact present but rejected
    "cache_writes": 0,       # artifact (re)written
}


def bump(name: str, n: int = 1) -> None:
    """Increment one counter (creating it if a caller invents a new one)."""
    _COUNTERS[name] = _COUNTERS.get(name, 0) + n


def get(name: str) -> int:
    return _COUNTERS.get(name, 0)


def snapshot() -> Dict[str, int]:
    """An independent copy of every counter, for before/after comparison."""
    return dict(_COUNTERS)


def reset() -> None:
    """Zero every counter (test isolation)."""
    for key in _COUNTERS:
        _COUNTERS[key] = 0
