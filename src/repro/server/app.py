"""The compile server: a long-lived, fault-isolated asyncio service.

The paper's table-driven generator is built once and reused for many
compilations; this server is that economic argument as a process.  At
startup it builds (or warm-loads from the persistent cache) the parse
tables exactly once, then serves:

``POST /compile``
    Pascal source in, object-code facts out (sha256, sizes, optional
    base64 records) -- byte-identical to the one-shot CLI.
``POST /run``
    Compile + simulate; the payload adds output, steps and any trap.
``POST /lint``
    speclint a built-in or inline spec; returns the JSON report.
``GET /metrics``
    Health telemetry (:mod:`repro.server.telemetry`).
``GET /healthz``
    Liveness: ``{"ok": true, "draining": false}``.

Robustness machinery, per request:

* **Admission control** -- at most ``jobs`` requests run concurrently
  and at most ``queue_limit`` wait; beyond that the server answers 429
  with ``Retry-After`` instead of letting latency grow without bound.
* **Deadlines** -- every request gets ``deadline_ms`` from receipt.
  The worker checks it cooperatively at each pipeline phase boundary
  (:class:`~repro.pipeline.service.RequestProfiler`); the event loop's
  watchdog (`asyncio.wait_for`) is the hard backstop that answers 504
  even if the worker never reaches a boundary.
* **Fault isolation** -- a typed pipeline error becomes a stable JSON
  envelope with the same message and context the CLI prints; a *raw*
  exception is wrapped as ``E_WORKER_CRASH`` -- no traceback ever
  reaches the wire, and the server keeps serving.
* **Circuit breaker** -- repeated worker faults on one spec route that
  spec to the baseline generator (:mod:`repro.server.breaker`),
  mirroring PR 1's per-routine fallback at service granularity.
* **Graceful drain** -- SIGTERM stops accepting, finishes in-flight
  work up to ``drain_ms``, then flushes final metrics.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.errors import (
    BadRequestError,
    DeadlineExceededError,
    ReproError,
    RequestTooLargeError,
    ServerOverloadedError,
)
from repro.pipeline.service import (
    RequestProfiler,
    ServiceRequest,
    execute_request,
)
from repro.server import wire
from repro.server.breaker import CircuitBreaker
from repro.server.telemetry import Telemetry

#: Endpoints that execute pipeline work (and so pass admission control).
WORK_ENDPOINTS = {
    ("POST", "/compile"): "compile",
    ("POST", "/run"): "run",
    ("POST", "/lint"): "lint",
}

#: Cap on the HTTP request head (request line + headers).
_HEAD_LIMIT = 16 * 1024


@dataclass
class ServerConfig:
    """Everything the ``serve`` subcommand can turn."""

    host: str = "127.0.0.1"
    port: int = 8370
    #: concurrent worker slots (threads over the warm in-memory tables).
    jobs: int = 2
    #: max requests *waiting* for a slot before 429s start.
    queue_limit: int = 16
    #: per-request deadline, from receipt to response.
    deadline_ms: float = 10_000.0
    #: request body byte cap (413 beyond it).
    body_limit: int = wire.DEFAULT_BODY_LIMIT
    #: how long SIGTERM waits for in-flight requests.
    drain_ms: float = 5_000.0
    breaker_threshold: int = 3
    breaker_cooldown_s: float = 5.0
    #: default spec the server warms and compiles with.
    variant: str = "full"
    table_mode: str = "dense"
    #: per-routine fallback default for requests that don't say.
    fallback: bool = False
    #: write the final metrics snapshot here on drain (optional).
    metrics_path: Optional[str] = None
    #: fault-drill injection point: called with the phase name at every
    #: pipeline phase boundary of every worker (in-process use only).
    fault_hook: Optional[Callable[[str], None]] = None


class CompileServer:
    """One long-lived compile service instance.

    ``startup()`` warms the tables and snapshots buildstats;
    ``dispatch()`` is the transport-independent request router (tests
    and the fault drill call it directly); ``serve_forever()`` binds
    the socket and runs until SIGTERM/``request_shutdown()``.
    """

    def __init__(self, config: Optional[ServerConfig] = None):
        self.config = config or ServerConfig()
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_threshold,
            cooldown_s=self.config.breaker_cooldown_s,
        )
        self.telemetry: Optional[Telemetry] = None
        self.startup_builds: Dict[str, int] = {}
        self._executor = None
        self._slots: Optional[asyncio.Semaphore] = None
        self._draining = False
        self._shutdown = asyncio.Event()
        self._inflight: set = set()
        self._listener: Optional[asyncio.AbstractServer] = None
        self.port: Optional[int] = None

    # ---- lifecycle ---------------------------------------------------------

    def startup(self) -> None:
        """Build tables once (warm from the persistent cache) and start
        the worker slots.  Callable from sync context before serving."""
        from concurrent.futures import ThreadPoolExecutor

        from repro.core import buildstats
        from repro.pascal.compiler import cached_build

        before = buildstats.snapshot()
        cached_build(self.config.variant, table_mode=self.config.table_mode)
        after = buildstats.snapshot()
        self.startup_builds = {
            key: after.get(key, 0) - before.get(key, 0)
            for key in ("automaton_builds", "table_builds",
                        "cache_hits", "cache_misses")
        }
        # The serving-time baseline is *after* warm-up: any build from
        # here on is a rebuild the warm-table claim says cannot happen.
        self.telemetry = Telemetry(after)
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, self.config.jobs),
            thread_name_prefix="repro-worker",
        )
        self._slots = asyncio.Semaphore(max(1, self.config.jobs))

    def request_shutdown(self) -> None:
        """Begin graceful drain (signal handlers land here)."""
        self._draining = True
        self._shutdown.set()

    @property
    def draining(self) -> bool:
        return self._draining

    # ---- request handling --------------------------------------------------

    def _spec_key(self, request) -> str:
        return f"{request.variant}:{request.table_mode}"

    def _run_job(self, request, deadline: float) -> Dict[str, object]:
        """Executed on a worker thread: one fault-isolated request."""
        profiler = RequestProfiler(
            deadline=deadline, fault_hook=self.config.fault_hook
        )
        use_baseline = False
        degraded_reason = ""
        if request.kind in ("compile", "run"):
            key = self._spec_key(request)
            if self.breaker.route(key) == "baseline":
                use_baseline = True
                degraded_reason = self.breaker.degraded_reason(key)
        try:
            payload = execute_request(
                request, profiler=profiler, use_baseline=use_baseline
            )
        except BaseException as error:
            # Tag which lane faulted: a baseline-lane failure says
            # nothing about table-path health, so the breaker must not
            # count it (there is nowhere further to degrade to anyway).
            error._repro_lane = (  # type: ignore[attr-defined]
                "baseline" if use_baseline else "table"
            )
            raise
        if use_baseline:
            payload["degraded"] = True
            payload["degraded_reason"] = degraded_reason
        return payload

    async def dispatch(
        self,
        method: str,
        path: str,
        body: bytes = b"",
    ) -> Tuple[int, Dict[str, object], Dict[str, str]]:
        """Route one request; returns ``(status, body, headers)``.

        This is the whole server minus HTTP framing -- unit tests
        drive it directly; the socket handler adds byte-level parsing
        on top.
        """
        telemetry = self.telemetry
        assert telemetry is not None, "startup() was not called"
        endpoint = f"{method} {path}"
        telemetry.request(endpoint)
        try:
            if (method, path) == ("GET", "/metrics"):
                status, payload = 200, self.metrics()
                telemetry.response(status)
                return status, payload, {}
            if (method, path) == ("GET", "/healthz"):
                status, payload = 200, {
                    "ok": True,
                    "draining": self._draining,
                    "schema_version": wire.WIRE_SCHEMA_VERSION,
                }
                telemetry.response(status)
                return status, payload, {}
            kind = WORK_ENDPOINTS.get((method, path))
            if kind is None:
                raise BadRequestError(
                    f"no such endpoint: {method} {path}",
                    detail="bad-endpoint",
                )
            if len(body) > self.config.body_limit:
                raise RequestTooLargeError(
                    f"request body is {len(body)} bytes; "
                    f"limit is {self.config.body_limit}",
                    content_length=len(body),
                    limit=self.config.body_limit,
                )
            status, payload, headers = await self._dispatch_work(kind, body)
            telemetry.response(status)
            return status, payload, headers
        except Exception as error:  # noqa: BLE001 -- envelope everything
            status, payload, headers = wire.error_response(error)
            telemetry.response(status, error_code=payload["error"]["code"])
            return status, payload, headers

    async def _dispatch_work(
        self, kind: str, body: bytes
    ) -> Tuple[int, Dict[str, object], Dict[str, str]]:
        telemetry = self.telemetry
        config = self.config
        assert telemetry is not None and self._slots is not None
        if self._draining:
            raise ServerOverloadedError(
                "server is draining; not accepting new requests",
                queue_depth=telemetry.queue_depth,
                queue_limit=config.queue_limit,
                retry_after_s=max(1.0, config.drain_ms / 1000.0),
            )
        # Admission control: depth counts running + waiting requests.
        if telemetry.queue_depth >= config.jobs + config.queue_limit:
            telemetry.queue_rejections += 1
            raise ServerOverloadedError(
                f"queue full: {telemetry.queue_depth} requests in "
                f"flight (limit {config.jobs} running + "
                f"{config.queue_limit} queued)",
                queue_depth=telemetry.queue_depth,
                queue_limit=config.queue_limit,
                retry_after_s=max(1.0, config.deadline_ms / 1000.0),
            )
        # Decode *before* burning a worker slot: a malformed body must
        # never cost pipeline work (and must never raise a traceback).
        decoded = wire.decode_body(body)
        request = ServiceRequest.from_wire(decoded, kind)
        if "fallback" not in decoded:
            request.fallback = config.fallback

        deadline = time.monotonic() + config.deadline_ms / 1000.0
        telemetry.enqueue()
        task = asyncio.current_task()
        if task is not None:
            self._inflight.add(task)
        acquired = False
        try:
            loop = asyncio.get_running_loop()
            remaining = deadline - time.monotonic()
            await asyncio.wait_for(
                self._slots.acquire(), timeout=max(0.001, remaining)
            )
            acquired = True
            remaining = deadline - time.monotonic()
            payload = await asyncio.wait_for(
                loop.run_in_executor(
                    self._executor, self._run_job, request, deadline
                ),
                timeout=max(0.001, remaining),
            )
        except asyncio.TimeoutError:
            telemetry.watchdog_cancels += 1
            elapsed_ms = (
                1000.0 * (time.monotonic() - deadline)
                + config.deadline_ms
            )
            error = DeadlineExceededError(
                f"deadline exceeded after {elapsed_ms:.0f} ms "
                f"(deadline {config.deadline_ms:.0f} ms); "
                f"worker abandoned",
                deadline_ms=config.deadline_ms,
                elapsed_ms=elapsed_ms,
                phase="" if acquired else "queued",
                source="watchdog",
            )
            self._record_outcome(request, error=error)
            raise error
        except ReproError as error:
            self._record_outcome(request, error=error)
            raise
        except Exception as error:  # noqa: BLE001 -- crash isolation
            self._record_outcome(request, error=error)
            raise
        finally:
            if acquired:
                self._slots.release()
            telemetry.dequeue()
            if task is not None:
                self._inflight.discard(task)
        self._record_outcome(request, payload=payload)
        telemetry.profile(payload.get("profile") or {})
        if payload.get("degraded"):
            telemetry.degraded_requests += 1
        if self._draining:
            telemetry.drained_requests += 1
        return wire.ok_response(payload) + ({},)

    def _record_outcome(self, request, payload=None, error=None) -> None:
        """Feed the circuit breaker: worker faults open it, completed
        table-path requests (including client errors) close it."""
        if request.kind not in ("compile", "run"):
            return
        key = self._spec_key(request)
        if error is None:
            if payload is not None and not payload.get("degraded"):
                self.breaker.record_success(key)
            return
        from repro.errors import error_envelope

        envelope = error_envelope(error)
        is_fault = (
            envelope["http_status"] >= 500
            or envelope["code"] == "E_DEADLINE_EXCEEDED"
        )
        if is_fault:
            assert self.telemetry is not None
            self.telemetry.worker_faults += 1
            if getattr(error, "_repro_lane", "table") == "table":
                self.breaker.record_fault(
                    key, f"{envelope['type']}: {envelope['message']}"
                )
        else:
            # A client mistake says nothing about table-path health.
            self.breaker.record_success(key)

    def metrics(self) -> Dict[str, object]:
        assert self.telemetry is not None
        return self.telemetry.snapshot(
            breaker=self.breaker.snapshot(),
            extra={
                "schema_version": wire.WIRE_SCHEMA_VERSION,
                "draining": self._draining,
                "startup_builds": self.startup_builds,
                "config": {
                    "jobs": self.config.jobs,
                    "queue_limit": self.config.queue_limit,
                    "deadline_ms": self.config.deadline_ms,
                    "body_limit": self.config.body_limit,
                    "variant": self.config.variant,
                    "table_mode": self.config.table_mode,
                },
            },
        )

    # ---- HTTP framing ------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            status, payload, headers = await self._read_and_dispatch(reader)
        except asyncio.CancelledError:
            # Drain timeout cancelled us mid-request: answer 429 so the
            # client retries elsewhere, then let the loop die.
            status, payload, headers = wire.error_response(
                ServerOverloadedError(
                    "server shut down before the request finished",
                    retry_after_s=1.0,
                )
            )
        except Exception as error:  # noqa: BLE001 -- last-ditch envelope
            status, payload, headers = wire.error_response(error)
        try:
            writer.write(wire.render_http(status, payload, headers))
            await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()

    async def _read_and_dispatch(self, reader: asyncio.StreamReader):
        try:
            head = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), timeout=10.0
            )
        except asyncio.LimitOverrunError as error:
            raise RequestTooLargeError(
                "request head too large", limit=_HEAD_LIMIT
            ) from error
        except (asyncio.IncompleteReadError, asyncio.TimeoutError) as error:
            raise BadRequestError(
                "incomplete HTTP request head", detail="bad-http"
            ) from error
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3:
            raise BadRequestError(
                f"malformed request line: {lines[0]!r}", detail="bad-http"
            )
        method, path, _version = parts
        content_length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError as error:
                    raise BadRequestError(
                        f"bad Content-Length: {value.strip()!r}",
                        detail="bad-http",
                    ) from error
        if content_length > self.config.body_limit:
            # Reject on the declared size without reading the body:
            # an oversized upload must not even be buffered.
            raise RequestTooLargeError(
                f"declared Content-Length {content_length} exceeds "
                f"limit {self.config.body_limit}",
                content_length=content_length,
                limit=self.config.body_limit,
            )
        body = b""
        if content_length > 0:
            try:
                body = await asyncio.wait_for(
                    reader.readexactly(content_length), timeout=30.0
                )
            except (asyncio.IncompleteReadError,
                    asyncio.TimeoutError) as error:
                raise BadRequestError(
                    "request body shorter than Content-Length",
                    detail="bad-http",
                ) from error
        return await self.dispatch(method, path, body)

    # ---- serving -----------------------------------------------------------

    async def serve_forever(self, ready=None) -> Dict[str, object]:
        """Bind, serve until shutdown is requested, drain, and return
        the final metrics snapshot."""
        if self.telemetry is None:
            self.startup()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.request_shutdown)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        self._listener = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            limit=_HEAD_LIMIT,
        )
        self.port = self._listener.sockets[0].getsockname()[1]
        if ready is not None:
            ready(self.port)
        print(
            f"repro-server: serving on {self.config.host}:{self.port} "
            f"(jobs={self.config.jobs}, queue_limit="
            f"{self.config.queue_limit}, deadline_ms="
            f"{self.config.deadline_ms:.0f})",
            file=sys.stderr, flush=True,
        )
        await self._shutdown.wait()
        return await self._drain()

    async def _drain(self) -> Dict[str, object]:
        """Stop accepting, finish in-flight work, flush metrics."""
        assert self.telemetry is not None
        if self._listener is not None:
            self._listener.close()
            await self._listener.wait_closed()
        pending = {t for t in self._inflight if not t.done()}
        drained_clean = True
        if pending:
            done, still = await asyncio.wait(
                pending, timeout=self.config.drain_ms / 1000.0
            )
            for task in still:
                task.cancel()
                drained_clean = False
            if still:
                await asyncio.gather(*still, return_exceptions=True)
        final = self.metrics()
        final["drain_clean"] = drained_clean
        if self.config.metrics_path:
            from pathlib import Path

            Path(self.config.metrics_path).write_text(
                json.dumps(final, indent=2, sort_keys=True) + "\n"
            )
        print(
            f"repro-server: drained "
            f"({'clean' if drained_clean else 'forced'}; "
            f"{final['requests_completed']} requests served); final "
            f"metrics: {json.dumps(final, sort_keys=True)}",
            file=sys.stderr, flush=True,
        )
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
        return final


def serve(config: Optional[ServerConfig] = None) -> int:
    """Blocking entry point for the ``serve`` CLI subcommand."""
    server = CompileServer(config)
    server.startup()
    final = asyncio.run(server.serve_forever())
    return 0 if final.get("drain_clean", False) else 3
