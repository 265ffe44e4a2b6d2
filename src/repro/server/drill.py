"""The scripted fault drill: prove the server's robustness contract.

A drill starts a real compile server (sockets, threads, watchdog and
all) with the chaos fault hook armed, fires a few hundred mixed
requests at it -- clean compiles/runs/lints, malformed JSON, oversized
bodies, unknown endpoints, bad fields, injected worker crashes,
injected latency past the deadline, and concurrent overflow storms --
and asserts the contract the whole PR exists for:

* every single response is a 2xx payload **or** a typed JSON error
  envelope with a known stable code -- never a traceback, never a hang;
* the circuit breaker **trips** under the crash storm and **recovers**
  after it (both observable in ``/metrics``);
* after the drill, with faults cleared, ``POST /compile`` returns
  object records **byte-identical** to a one-shot in-process compile --
  surviving a fault storm costs nothing afterwards;
* the server drains cleanly on shutdown.

Run it directly::

    PYTHONPATH=src python -m repro.server.drill --seed 0 --requests 200

Exit status 0 iff the drill passed.  Seeded and deterministic in the
fault *schedule*; wall-clock scheduling can shift which typed error an
individual response carries, never whether the contract holds.
"""

from __future__ import annotations

import base64
import json
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.robustness.faultinject import CHAOS_PROGRAM
from repro.server.app import ServerConfig
from repro.server.harness import ServerHandle, start_server

#: The phases a ``/run`` request at -O1 passes through; crash and
#: latency faults target any of them.
_PHASES = (
    "frontend", "shape", "linearize", "select",
    "peephole", "assemble", "simulate",
)

#: Drill request mix, in relative weights.
_MIX = (
    ("compile", 30), ("run", 16), ("lint", 8),
    ("bad-json", 7), ("bad-field", 7), ("oversized", 4),
    ("bad-endpoint", 4), ("crash-burst", 4), ("latency", 1),
    ("overflow-burst", 3),
)


class ServerChaosControl:
    """Mutable fault program for a live server's phase-boundary hook.

    The server's ``fault_hook`` closes over one of these; the drill
    mutates it between requests.  ``mode`` is ``None`` (healthy),
    ``"crash"`` (raise on entering ``phase``) or ``"latency"`` (sleep
    ``sleep_s`` on entering ``phase``).
    """

    def __init__(self):
        self.mode: Optional[str] = None
        self.phase: str = "select"
        self.sleep_s: float = 0.0

    def clear(self) -> None:
        self.mode = None

    def hook(self, phase: str) -> None:
        mode = self.mode
        if mode == "crash" and phase == self.phase:
            raise RuntimeError(
                f"chaos: injected worker crash entering phase {phase!r}"
            )
        if mode == "latency" and phase == self.phase:
            time.sleep(self.sleep_s)


def _known_codes() -> set:
    """Envelope codes the wire contract allows (anything else is a
    bug)."""
    from repro.errors import ERROR_CODES

    return {code for code, _, _ in ERROR_CODES.values()}


def _check_server_response(
    status: int, body: Dict, headers: Dict, source: str
) -> None:
    """The per-response contract: 2xx payload or typed envelope, and
    ``Retry-After`` on every 429."""
    if 200 <= status < 300:
        if body.get("ok") not in (True, False):
            raise RuntimeError(
                f"{source}: 2xx response without an 'ok' field: {body!r}"
            )
        return
    error = body.get("error")
    if body.get("ok") is not False or not isinstance(error, dict):
        raise RuntimeError(
            f"{source}: non-2xx response is not an error envelope: "
            f"{status} {body!r}"
        )
    if error.get("code") not in _known_codes():
        raise RuntimeError(
            f"{source}: unknown envelope code {error.get('code')!r}"
        )
    if error.get("http_status") != status:
        raise RuntimeError(
            f"{source}: envelope http_status {error.get('http_status')!r} "
            f"disagrees with wire status {status}"
        )
    message = error.get("message", "")
    if not message or "Traceback" in str(body):
        raise RuntimeError(
            f"{source}: envelope message missing or traceback leaked"
        )
    if status == 429 and "Retry-After" not in headers:
        raise RuntimeError(f"{source}: 429 response missing Retry-After")


@dataclass
class DrillReport:
    """Everything a CI log needs to judge one drill."""

    seed: int
    requests: int = 0
    by_status: Dict[str, int] = field(default_factory=dict)
    by_code: Dict[str, int] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)
    breaker_trips: int = 0
    breaker_recoveries: int = 0
    post_drill_identical: bool = False
    drain_clean: bool = False
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return (
            not self.violations
            and self.breaker_trips >= 1
            and self.breaker_recoveries >= 1
            and self.post_drill_identical
            and self.drain_clean
        )

    def render(self) -> str:
        lines = [
            f"fault drill: seed={self.seed} requests={self.requests} "
            f"({self.seconds:.1f}s)",
            "  statuses  " + ", ".join(
                f"{k}={v}" for k, v in sorted(self.by_status.items())
            ),
            "  codes     " + (", ".join(
                f"{k}={v}" for k, v in sorted(self.by_code.items())
            ) or "(none)"),
            f"  breaker   trips={self.breaker_trips} "
            f"recoveries={self.breaker_recoveries}",
            f"  post-drill compile byte-identical: "
            f"{self.post_drill_identical}",
            f"  drain clean: {self.drain_clean}",
        ]
        for violation in self.violations[:20]:
            lines.append(f"  VIOLATION {violation}")
        if len(self.violations) > 20:
            lines.append(
                f"  ... and {len(self.violations) - 20} more violations"
            )
        lines.append("PASS" if self.ok else "FAIL")
        return "\n".join(lines)


class _Drill:
    def __init__(self, seed: int, requests: int):
        self.rng = random.Random(seed)
        self.target = requests
        self.report = DrillReport(seed=seed)
        self.control = ServerChaosControl()
        self.handle: Optional[ServerHandle] = None
        self.config = ServerConfig(
            port=0, jobs=2, queue_limit=4, deadline_ms=700.0,
            body_limit=64 * 1024, breaker_threshold=3,
            breaker_cooldown_s=0.5, fault_hook=self.control.hook,
        )

    # ---- bookkeeping ----

    def _tally(
        self, status: int, body: Dict, headers: Dict, source: str
    ) -> None:
        self.report.requests += 1
        key = str(status)
        self.report.by_status[key] = self.report.by_status.get(key, 0) + 1
        error = body.get("error")
        if isinstance(error, dict) and error.get("code"):
            code = str(error["code"])
            self.report.by_code[code] = self.report.by_code.get(code, 0) + 1
        try:
            _check_server_response(status, body, headers, source)
        except RuntimeError as violation:
            self.report.violations.append(str(violation))

    def _post(self, path: str, body=None, raw=None, source: str = ""):
        assert self.handle is not None
        try:
            status, decoded, headers = self.handle.request(
                "POST", path, body=body, raw=raw, timeout=30.0
            )
        except Exception as error:  # noqa: BLE001 -- a hang IS a failure
            self.report.requests += 1
            self.report.violations.append(
                f"{source or path}: request hung or died: {error!r}"
            )
            return None
        self._tally(status, decoded, headers, source or path)
        return status, decoded, headers

    def _settle(self) -> None:
        """Clear faults and wait for a clean 200 (does not count
        toward the mixed-request tally on success)."""
        self.control.clear()
        assert self.handle is not None
        for _ in range(80):
            try:
                status, body, _ = self.handle.request(
                    "POST", "/compile",
                    {"name": "settle", "source": CHAOS_PROGRAM},
                    timeout=30.0,
                )
            except Exception as error:  # noqa: BLE001
                self.report.violations.append(
                    f"settle: request hung or died: {error!r}"
                )
                return
            if status == 200 and not body.get("degraded"):
                return
            time.sleep(0.1)
        self.report.violations.append(
            "settle: server never returned a clean table-path 200 "
            "after faults cleared"
        )

    # ---- the request mix ----

    def _do_compile(self) -> None:
        self._post("/compile", {
            "name": "drill", "source": CHAOS_PROGRAM,
            "opt_level": self.rng.choice([0, 1]),
        })

    def _do_run(self) -> None:
        self._post("/run", {
            "name": "drill-run", "source": CHAOS_PROGRAM,
        })

    def _do_lint(self) -> None:
        self._post("/lint", {
            "spec": self.rng.choice(["toy", "s370:full"])
        })

    def _do_bad_json(self) -> None:
        junk = self.rng.choice([
            b"{not json at all",
            b"\xff\xfe garbage bytes",
            b"[1, 2, 3]",
            b'"just a string"',
        ])
        self._post("/compile", raw=junk, source="bad-json")

    def _do_bad_field(self) -> None:
        body = self.rng.choice([
            {"source": 42},
            {"source": CHAOS_PROGRAM, "bogus_field": 1},
            {"source": CHAOS_PROGRAM, "opt_level": 9},
            {"source": CHAOS_PROGRAM, "variant": "imaginary"},
            {"source": ""},
            {"source": "program oops; begin x := end."},
        ])
        self._post("/compile", body, source="bad-field")

    def _do_oversized(self) -> None:
        pad = "x" * (self.config.body_limit + 512)
        raw = json.dumps({"source": pad}).encode("ascii")
        self._post("/compile", raw=raw, source="oversized")

    def _do_bad_endpoint(self) -> None:
        path = self.rng.choice(["/comple", "/admin", "/compile/extra"])
        self._post(path, {"source": CHAOS_PROGRAM}, source="bad-endpoint")

    def _do_crash_burst(self) -> None:
        """Enough consecutive crashes to trip the breaker, then watch
        it degrade to the baseline lane, then recover.  The requests go
        through ``/run`` at -O1, so every phase can fire."""
        self.control.phase = self.rng.choice(_PHASES)
        self.control.mode = "crash"
        for i in range(self.config.breaker_threshold + 2):
            self._post(
                "/run",
                {"name": f"crash-{i}", "source": CHAOS_PROGRAM,
                 "opt_level": 1},
                source="crash-burst",
            )
        self._settle()

    def _do_latency(self) -> None:
        self.control.phase = self.rng.choice(_PHASES)
        self.control.sleep_s = self.config.deadline_ms / 1000.0 + 0.4
        self.control.mode = "latency"
        self._post(
            "/run",
            {"name": "slow", "source": CHAOS_PROGRAM, "opt_level": 1},
            source="latency",
        )
        self._settle()

    def _do_overflow_burst(self) -> None:
        self.control.phase = "frontend"
        self.control.sleep_s = 0.25
        self.control.mode = "latency"
        burst = self.config.jobs + self.config.queue_limit + 4
        lock = threading.Lock()
        outcomes: List = []

        def fire(index: int) -> None:
            assert self.handle is not None
            try:
                outcome = self.handle.request(
                    "POST", "/run",
                    {"name": f"storm-{index}", "source": CHAOS_PROGRAM},
                    timeout=30.0,
                )
            except Exception as error:  # noqa: BLE001
                outcome = error
            with lock:
                outcomes.append(outcome)

        threads = [
            threading.Thread(target=fire, args=(i,)) for i in range(burst)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        rejected = 0
        for outcome in outcomes:
            if isinstance(outcome, Exception):
                self.report.requests += 1
                self.report.violations.append(
                    f"overflow: request hung or died: {outcome!r}"
                )
            else:
                status, body, headers = outcome
                self._tally(status, body, headers, "overflow")
                rejected += status == 429
        if not rejected:
            self.report.violations.append(
                f"overflow: a storm of {burst} concurrent requests "
                f"produced no 429"
            )
        if len(outcomes) != burst:
            self.report.violations.append(
                f"overflow: {burst - len(outcomes)} requests never "
                f"returned"
            )
        self._settle()

    # ---- the drill ----

    def run(self) -> DrillReport:
        started = time.perf_counter()
        # The one-shot reference, compiled in-process exactly the way
        # the CLI does it -- the byte-identity target.
        from repro.pipeline.service import ServiceRequest, execute_request

        reference = execute_request(ServiceRequest(
            kind="compile", name="reference", source=CHAOS_PROGRAM,
            return_object=True,
        ))
        self.handle = start_server(self.config)
        actions = {
            "compile": self._do_compile,
            "run": self._do_run,
            "lint": self._do_lint,
            "bad-json": self._do_bad_json,
            "bad-field": self._do_bad_field,
            "oversized": self._do_oversized,
            "bad-endpoint": self._do_bad_endpoint,
            "crash-burst": self._do_crash_burst,
            "latency": self._do_latency,
            "overflow-burst": self._do_overflow_burst,
        }
        names = [name for name, weight in _MIX for _ in range(weight)]
        # One of each fault scenario first, so even a short drill trips
        # the breaker, crosses a deadline and overflows the queue; the
        # rest of the schedule is seeded.
        self._do_crash_burst()
        self._do_latency()
        self._do_overflow_burst()
        while self.report.requests < self.target:
            actions[self.rng.choice(names)]()
        self._settle()

        # Post-drill byte identity against the one-shot reference.
        outcome = self._post(
            "/compile",
            {"name": "post-drill", "source": CHAOS_PROGRAM,
             "return_object": True},
            source="post-drill",
        )
        if outcome is not None:
            status, body, _headers = outcome
            if status == 200 and not body.get("degraded"):
                served = base64.b64decode(body.get("object_b64", ""))
                expected = base64.b64decode(reference["object_b64"])
                self.report.post_drill_identical = served == expected
                if not self.report.post_drill_identical:
                    self.report.violations.append(
                        "post-drill compile differs from the one-shot "
                        "reference"
                    )
            else:
                self.report.violations.append(
                    f"post-drill compile not a clean table-path 200: "
                    f"{status} degraded={body.get('degraded')!r}"
                )

        final = self.handle.stop()
        breaker = final.get("breaker", {})
        for state in breaker.values():
            self.report.breaker_trips += state.get("trips", 0)
            self.report.breaker_recoveries += state.get("recoveries", 0)
        self.report.drain_clean = bool(final.get("drain_clean"))
        self.report.seconds = time.perf_counter() - started
        return self.report


def run_drill(seed: int = 0, requests: int = 200) -> DrillReport:
    """Run one scripted fault drill; see the module docstring."""
    return _Drill(seed, requests).run()


def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.server.drill", description="compile-server fault drill"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--requests", type=int, default=200)
    arguments = parser.parse_args(argv)
    report = run_drill(seed=arguments.seed, requests=arguments.requests)
    print(report.render())
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
