"""The serve_mixed load: closed-loop clients against an in-process server.

Two client threads share one seeded request stream and send their next
request only when the previous reply has arrived (a build tool waits for
each compile), over a fresh socket per request, to a compile server with
one worker slot, so one request runs while the other waits in admission.
Every reply is checked: ``/run`` output against the oracle and steps
against the in-process pass, ``/compile`` object code hashes against the
in-process object code.  A failed or refused request counts as an error
and as an infinite latency.

After a warm-up the load runs in segments of ``SEGMENT_S``.  Between two
segments no request is in flight, and the host's speed is calibrated
(see ``calibration.py``); a segment's times are scaled to reference
seconds by the mean of the calibrations on either side of it.
"""

from __future__ import annotations

import hashlib
import http.client
import math
import threading
import time
from typing import Dict, List

import programs as P
from calibration import REFERENCE_S, calibrate
from spans import Tracer, chrome_events, quantile

CLIENTS = 2
#: One worker slot, standing in for the server's default of two: with two,
#: concurrent ``CodeGenerator.generate`` calls share the generator's
#: ``_active_ctx`` and emit wrong code now and then (``lr r1,r1`` for
#: ``lr r1,r3``), which this workload's checks catch.  Return to the
#: default once that race is fixed.
JOBS = 1
SEGMENT_S = 1.0


class Sample:
    """One request: its round trip and the server's time on it (the
    payload's ``seconds``), in reference seconds."""

    __slots__ = ("program", "latency", "work", "ok")

    def __init__(self, program: str, latency: float, work: float, ok: bool):
        self.program = program
        self.latency = latency if ok else math.inf
        self.work = work
        self.ok = ok


class Served:
    """Samples of the measured segments plus the server's own counters."""

    def __init__(self, samples: List[Sample], measured_s: float,
                 server_metrics: Dict[str, object], events):
        self.samples = samples
        self.measured_s = measured_s  # reference seconds
        self.server_metrics = server_metrics
        self.events = events

    def end_to_end(self) -> Dict[str, float]:
        done = [s for s in self.samples if s.ok]
        latencies = [s.latency for s in self.samples]
        return {
            "ops_per_s": len(done) / self.measured_s,
            "op_p50_ms": 1000 * quantile(latencies, 0.50),
            "op_p95_ms": 1000 * quantile(latencies, 0.95),
        }

    def layer_metrics(self) -> Dict[str, float]:
        done = [s for s in self.samples if s.ok]
        queue = self.server_metrics["queue"]
        builds = self.server_metrics["buildstats"]
        return {
            "op.work_ms_p50": 1000 * quantile([s.work for s in done], 0.5),
            "op.wait_ms_p50": 1000 * quantile(
                [s.latency - s.work for s in done], 0.5),
            "op.latency_p99_ms": 1000 * quantile(
                [s.latency for s in self.samples], 0.99),
            "server.queue_high_watermark": queue["high_watermark"],
            "server.rejections": queue["rejections"],
            "server.rebuilds": sum(
                builds.get(key, 0) for key in
                ("automaton_builds", "table_builds", "specialize_emits")),
        }


def serve_workload(work, seed: int, warmup_s: float, seconds: float,
                   origin: float) -> Served:
    """Serve ``work``'s program pool for ``warmup_s``, then measure
    segments until ``seconds`` of them are done."""
    from repro.server.app import ServerConfig
    from repro.server.harness import start_server

    sha = {
        name: hashlib.sha256(records).hexdigest()
        for name, records in work.records.items()
    }
    stream = P.request_stream(work.programs, seed)
    lock = threading.Lock()
    tracers = [Tracer() for _ in range(CLIENTS)]

    def check(program: P.Program, status: int, payload) -> bool:
        if status != 200 or not payload.get("ok"):
            work.fail(f"{program.name}: /{program.kind} answered {status}")
            return False
        if program.kind == "compile":
            if payload.get("object_sha256") != sha[program.name]:
                work.fail(f"{program.name}: /compile object code differs")
                return False
            return True
        if (payload.get("output") != work.expected[program.name]
                or payload.get("steps")
                != work.reference[program.name]["steps"]):
            work.fail(f"{program.name}: /run output {payload.get('output')!r}"
                       f" differs")
            return False
        return True

    def client(tracer: Tracer, stop_at: float, got: List[tuple]) -> None:
        while True:
            with lock:
                program = next(stream)
            if time.perf_counter() >= stop_at:
                return
            body = {"name": program.name, "source": program.source,
                    "opt_level": program.level}
            if program.kind == "run":
                body["input_values"] = list(program.inputs)
            tracer.new_op(program.name)
            span = tracer.begin(f"POST /{program.kind}")
            try:
                status, payload, _ = handle.request(
                    "POST", f"/{program.kind}", body)
            except (OSError, ValueError, http.client.HTTPException) as error:
                status, payload = 0, {"error": str(error)}
            tracer.end(span)
            record = tracer.spans[span]
            record.args = {"status": status}
            with lock:
                ok = check(program, status, payload)
                work.attempted += 1
                got.append((program.name, record.start, record.end,
                            payload.get("seconds", 0.0), ok))

    def segment(seconds: float) -> List[tuple]:
        """Both clients for ``seconds``; returns once no request is in
        flight: (program, start, end, work, ok) per request."""
        got: List[tuple] = []
        stop_at = time.perf_counter() + seconds
        threads = [
            threading.Thread(target=client, args=(tracer, stop_at, got),
                             name=f"client-{i}")
            for i, tracer in enumerate(tracers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=seconds + 120)
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("a serve client did not finish")
        return got

    samples: List[Sample] = []
    measured_s = 0.0
    handle = start_server(ServerConfig(port=0, jobs=JOBS))
    try:
        segment(warmup_s)
        before = calibrate()
        elapsed = 0.0
        while elapsed < seconds:
            start = time.perf_counter()
            got = segment(SEGMENT_S)
            duration = max([start] + [end for _, _, end, _, _ in got]) - start
            after = calibrate()
            scale = REFERENCE_S / ((before + after) / 2)
            before = after
            elapsed += duration
            measured_s += duration * scale
            samples += [
                Sample(name, (end - begin) * scale, busy * scale, ok)
                for name, begin, end, busy, ok in got
            ]
        _, server_metrics, _ = handle.request("GET", "/metrics")
    finally:
        handle.stop()
    events = []
    for i, tracer in enumerate(tracers):
        events += chrome_events(tracer, pid=2, tid=i, origin=origin)
    return Served(samples, measured_s, server_metrics, events)
