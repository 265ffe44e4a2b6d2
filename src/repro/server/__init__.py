"""The compile server: compile-as-a-service over the warm tables.

The table-driven argument of the paper is economic -- build the
generator once, amortize it over every compilation.  This package is
that argument as a long-lived service: tables are built (or warm-loaded
from the persistent cache) exactly once at startup, then ``POST
/compile``, ``POST /run`` and ``POST /lint`` reuse them for every
request, with ``GET /metrics`` proving the zero-rebuild claim from
buildstats deltas.

Modules:

* :mod:`repro.server.app` -- :class:`~repro.server.app.CompileServer`
  and :class:`~repro.server.app.ServerConfig`: routing, admission
  control, deadline watchdog, fault isolation, graceful drain.
* :mod:`repro.server.wire` -- wire schemas: JSON bodies, the stable
  error envelope, HTTP/1.1 framing.
* :mod:`repro.server.breaker` -- per-spec circuit breaker degrading to
  the baseline generator.
* :mod:`repro.server.telemetry` -- the ``/metrics`` counters.
* :mod:`repro.server.harness` -- background-thread server handle for
  tests, the fault drill and CI smoke.
* :mod:`repro.server.drill` -- the scripted fault drill (chaos storm,
  typed-envelopes-only contract, breaker recovery, byte-identical
  post-drill compile).
* :mod:`repro.server.smoke` -- the CI smoke run (concurrent mixed
  requests, zero-rebuild metrics check, clean SIGTERM drain).
"""

from repro.server.app import CompileServer, ServerConfig, serve
from repro.server.breaker import CircuitBreaker
from repro.server.telemetry import Telemetry
from repro.server.wire import WIRE_SCHEMA_VERSION

__all__ = [
    "CircuitBreaker",
    "CompileServer",
    "ServerConfig",
    "Telemetry",
    "WIRE_SCHEMA_VERSION",
    "serve",
]
