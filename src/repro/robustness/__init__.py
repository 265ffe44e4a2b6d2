"""Fault tolerance for the code-generation pipeline.

The paper's correctness story is that a blocked parse "will stop and
signal an error" -- but Graham-Glanville generators are notorious for
*how* they stop: parser blocking on an unanticipated IF prefix,
chain-rule loops that reduce forever without consuming input, and
register exhaustion mid-parse.  This package turns each of those from a
raw crash (or hang) into a detected, diagnosed and -- where possible --
recovered condition:

* :mod:`repro.robustness.degrade` -- per-routine graceful degradation:
  when the table-driven generator blocks on one routine, re-generate
  just that routine with the hand-written baseline generator and record
  the event, so a whole compilation never dies on one bad subtree.
* :mod:`repro.robustness.faultinject` -- a deterministic, seed-driven
  chaos harness that corrupts LR tables, mutates IF streams, shrinks
  register classes, truncates object modules and damages build-cache
  artifacts, asserting that the
  pipeline always ends in a typed :class:`~repro.errors.ReproError`,
  never a hang or an uncaught raw exception.

The runtime guards themselves (chain-loop watchdog, step budget,
structured blocking errors) live with the skeletal parser in
:mod:`repro.core.codegen.parser_rt` and are re-exported here.
"""

from repro.core.codegen.parser_rt import DEFAULT_GUARDS, ParserGuards
from repro.robustness.degrade import FallbackEvent, generate_with_fallback
from repro.robustness.faultinject import (
    ChaosReport,
    ChaosResult,
    INJECTORS,
    run_chaos,
)

__all__ = [
    "ChaosReport",
    "ChaosResult",
    "DEFAULT_GUARDS",
    "FallbackEvent",
    "INJECTORS",
    "ParserGuards",
    "generate_with_fallback",
    "run_chaos",
]
