"""The compile server: routing, envelopes, admission control,
deadlines, the circuit breaker, drain -- plus one socket-level pass
through the real HTTP framing via the harness.

Most tests drive ``CompileServer.dispatch`` directly (the whole server
minus byte framing); each test runs its scenario inside a single
``asyncio.run`` so the server's semaphore stays on one event loop.
"""

import asyncio
import base64
import json
import time

from repro.pascal.interp import interpret_source
from repro.pipeline.service import ServiceRequest, execute_request
from repro.server import CompileServer, ServerConfig
from repro.server.harness import start_server

PROGRAM = """
program served;
var i, s: integer;
begin
  s := 0;
  for i := 1 to 5 do s := s + i * i;
  writeln(s)
end.
"""


def make_server(**overrides) -> CompileServer:
    server = CompileServer(ServerConfig(port=0, **overrides))
    server.startup()
    return server


def body_bytes(payload) -> bytes:
    return json.dumps(payload).encode("utf-8")


def run(coro):
    return asyncio.run(coro)


class TestEndpoints:
    def test_compile_matches_one_shot(self):
        reference = execute_request(ServiceRequest(
            kind="compile", name="p", source=PROGRAM, return_object=True,
        ))
        server = make_server()

        async def scenario():
            return await server.dispatch(
                "POST", "/compile",
                body_bytes({"name": "p", "source": PROGRAM,
                            "return_object": True}),
            )

        status, body, _headers = run(scenario())
        assert status == 200
        assert body["ok"] is True
        assert body["object_sha256"] == reference["object_sha256"]
        assert base64.b64decode(body["object_b64"]) == \
            base64.b64decode(reference["object_b64"])

    def test_run_matches_interpreter(self):
        server = make_server()

        async def scenario():
            return await server.dispatch(
                "POST", "/run",
                body_bytes({"name": "p", "source": PROGRAM}),
            )

        status, body, _headers = run(scenario())
        assert status == 200
        assert body["output"] == interpret_source(PROGRAM)
        assert body["trap"] is None

    def test_lint_answers_report(self):
        server = make_server()

        async def scenario():
            return await server.dispatch(
                "POST", "/lint", body_bytes({"spec": "toy"})
            )

        status, body, _headers = run(scenario())
        assert status == 200
        assert body["lint"]["spec"] == "toy"

    def test_healthz(self):
        server = make_server()

        async def scenario():
            return await server.dispatch("GET", "/healthz")

        status, body, _headers = run(scenario())
        assert status == 200
        assert body["ok"] is True
        assert body["draining"] is False

    def test_unknown_endpoint_is_typed_400(self):
        server = make_server()

        async def scenario():
            return await server.dispatch(
                "POST", "/comple", body_bytes({"source": PROGRAM})
            )

        status, body, _headers = run(scenario())
        assert status == 400
        assert body["ok"] is False
        assert body["error"]["code"] == "E_BAD_REQUEST"
        assert body["error"]["context"]["detail"] == "bad-endpoint"


class TestBodyHardening:
    def test_malformed_json_is_typed_400(self):
        server = make_server()

        async def scenario():
            return await server.dispatch(
                "POST", "/compile", b'{"name": "p", "source": '
            )

        status, body, _headers = run(scenario())
        assert status == 400
        assert body["error"]["code"] == "E_BAD_REQUEST"
        assert body["error"]["context"]["detail"] == "bad-json"
        assert "Traceback" not in json.dumps(body)

    def test_unknown_field_is_typed_400(self):
        server = make_server()

        async def scenario():
            return await server.dispatch(
                "POST", "/compile",
                body_bytes({"source": PROGRAM, "bogus": 1}),
            )

        status, body, _headers = run(scenario())
        assert status == 400
        assert body["error"]["context"]["detail"] == "bad-field"

    def test_oversized_body_is_413(self):
        server = make_server(body_limit=256)
        oversized = body_bytes({"source": "x" * 1024})

        async def scenario():
            return await server.dispatch("POST", "/compile", oversized)

        status, body, _headers = run(scenario())
        assert status == 413
        assert body["error"]["code"] == "E_REQUEST_TOO_LARGE"
        assert body["error"]["context"]["limit"] == 256
        assert body["error"]["context"]["content_length"] == \
            len(oversized)
        assert body["error"]["retryable"] is False

    def test_metrics_counts_error_codes(self):
        server = make_server()

        async def scenario():
            await server.dispatch("POST", "/compile", b"not json")
            return await server.dispatch("GET", "/metrics")

        status, metrics, _headers = run(scenario())
        assert status == 200
        assert metrics["errors_by_code"]["E_BAD_REQUEST"] == 1
        assert metrics["responses_by_status"]["400"] == 1


class TestAdmissionControl:
    def test_full_queue_is_429_with_retry_after(self):
        server = make_server(jobs=1, queue_limit=2)

        async def scenario():
            # Fill the bounded queue (running + waiting) to its cap.
            for _ in range(3):
                server.telemetry.enqueue()
            return await server.dispatch(
                "POST", "/compile", body_bytes({"source": PROGRAM})
            )

        status, body, headers = run(scenario())
        assert status == 429
        error = body["error"]
        assert error["code"] == "E_OVERLOADED"
        assert error["retryable"] is True
        assert error["context"]["queue_depth"] == 3
        assert error["context"]["queue_limit"] == 2
        assert "Retry-After" in headers
        assert server.telemetry.queue_rejections == 1

    def test_draining_rejects_new_work(self):
        server = make_server()

        async def scenario():
            server.request_shutdown()
            work = await server.dispatch(
                "POST", "/compile", body_bytes({"source": PROGRAM})
            )
            health = await server.dispatch("GET", "/healthz")
            return work, health

        (status, body, _h), (hstatus, hbody, _h2) = run(scenario())
        assert status == 429
        assert "draining" in body["error"]["message"]
        assert hstatus == 200
        assert hbody["draining"] is True


class TestDeadlines:
    def test_watchdog_answers_504_and_server_keeps_serving(self):
        armed = [True]

        def hook(phase):
            if phase == "select" and armed[0]:
                time.sleep(0.8)

        server = make_server(deadline_ms=150.0, fault_hook=hook)

        async def scenario():
            slow = await server.dispatch(
                "POST", "/compile", body_bytes({"source": PROGRAM})
            )
            armed[0] = False
            fast = await server.dispatch(
                "POST", "/compile", body_bytes({"source": PROGRAM})
            )
            return slow, fast

        (status, body, _h), (fstatus, fbody, _h2) = run(scenario())
        error = body["error"]
        assert status == 504
        assert error["code"] == "E_DEADLINE_EXCEEDED"
        assert error["retryable"] is True
        assert error["context"]["source"] == "watchdog"
        assert error["context"]["deadline_ms"] == 150.0
        assert server.telemetry.watchdog_cancels == 1
        assert fstatus == 200 and fbody["ok"] is True


class TestCircuitBreaker:
    def test_trips_to_baseline_then_recovers(self):
        armed = [True]

        def hook(phase):
            if phase == "select" and armed[0]:
                raise RuntimeError("injected table fault")

        server = make_server(
            breaker_threshold=2, breaker_cooldown_s=0.2, fault_hook=hook
        )
        request = body_bytes({"name": "p", "source": PROGRAM})

        async def scenario():
            crashes = [
                await server.dispatch("POST", "/run", request)
                for _ in range(2)
            ]
            armed[0] = False
            degraded = await server.dispatch("POST", "/run", request)
            await asyncio.sleep(0.25)
            probe = await server.dispatch("POST", "/run", request)
            metrics = await server.dispatch("GET", "/metrics")
            return crashes, degraded, probe, metrics[1]

        crashes, degraded, probe, metrics = run(scenario())
        for status, body, _headers in crashes:
            assert status == 500
            assert body["error"]["code"] == "E_WORKER_CRASH"
            assert body["error"]["context"]["original_type"] == \
                "RuntimeError"
            assert "Traceback" not in json.dumps(body)
        # Breaker open: served by the baseline generator, still correct.
        status, body, _headers = degraded
        assert status == 200
        assert body["degraded"] is True
        assert "circuit breaker open" in body["degraded_reason"]
        assert body["generator"] == "baseline"
        assert body["output"] == interpret_source(PROGRAM)
        # After the cooldown the half-open probe closes the breaker.
        status, body, _headers = probe
        assert status == 200
        assert "degraded" not in body
        state = metrics["breaker"]["full:dense"]
        assert state["state"] == "closed"
        assert state["trips"] == 1
        assert state["recoveries"] == 1
        assert metrics["worker_faults"] == 2
        assert metrics["degraded_requests"] == 1


class TestMetrics:
    def test_shape_and_zero_rebuilds_while_serving(self):
        server = make_server()

        async def scenario():
            for _ in range(2):
                await server.dispatch(
                    "POST", "/compile", body_bytes({"source": PROGRAM})
                )
            return await server.dispatch("GET", "/metrics")

        status, metrics, _headers = run(scenario())
        assert status == 200
        for key in ("uptime_s", "requests", "responses_by_status",
                    "errors_by_code", "queue", "watchdog_cancels",
                    "phase_medians_s", "buildstats", "breaker", "pool",
                    "schema_version", "draining", "startup_builds",
                    "config"):
            assert key in metrics, key
        # The warm-table claim, as counters: serving compiles rebuilds
        # nothing.
        assert metrics["buildstats"]["automaton_builds"] == 0
        assert metrics["buildstats"]["table_builds"] == 0
        assert metrics["requests"]["POST /compile"] == 2
        assert metrics["responses_by_status"]["200"] == 2
        assert metrics["queue"]["depth"] == 0
        assert metrics["queue"]["high_watermark"] >= 1
        assert metrics["phase_medians_s"]
        assert metrics["config"]["jobs"] == server.config.jobs
        json.dumps(metrics)  # must be wire-serializable as-is


class TestSocketLevel:
    def test_http_round_trip_hardening_and_drain(self):
        reference = execute_request(ServiceRequest(
            kind="compile", name="p", source=PROGRAM,
        ))
        handle = start_server(ServerConfig(port=0, body_limit=1024))
        try:
            status, body, _headers = handle.request("GET", "/healthz")
            assert status == 200 and body["ok"] is True

            status, body, _headers = handle.request(
                "POST", "/compile",
                {"name": "p", "source": PROGRAM},
            )
            assert status == 200
            assert body["object_sha256"] == reference["object_sha256"]

            status, body, _headers = handle.request(
                "POST", "/compile", raw=b"definitely not json"
            )
            assert status == 400
            assert body["error"]["context"]["detail"] == "bad-json"

            # Rejected on the declared Content-Length, body unread.
            status, body, _headers = handle.request(
                "POST", "/compile",
                raw=body_bytes({"source": "x" * 4096}),
            )
            assert status == 413
            assert body["error"]["code"] == "E_REQUEST_TOO_LARGE"
        finally:
            final = handle.stop()
        assert final["drain_clean"] is True
        # The framing-level 413 never reaches dispatch(), so it is not
        # in requests_completed; the other three round trips are.
        assert final["requests_completed"] >= 3
        assert final["buildstats"]["automaton_builds"] == 0


class TestFaultDrill:
    def test_short_drill_keeps_the_contract(self):
        """A 40-request drill still crashes a phase, crosses a deadline
        and overflows the queue; every response must be a typed
        envelope (429s with ``Retry-After``), the breaker must trip and
        recover, and the post-drill compile must be byte-identical."""
        from repro.server.drill import run_drill

        report = run_drill(seed=0, requests=40)
        assert report.ok, report.render()
        for status in ("429", "500", "504"):
            assert report.by_status.get(status), report.render()
