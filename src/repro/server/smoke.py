"""CI smoke for the compile server: the warm-table story end to end.

Unlike the unit tests (in-process dispatch) and the fault drill
(in-process harness), the smoke exercises the server exactly as CI and
an operator would: a ``python -m repro serve`` **subprocess**, real
HTTP over a socket, and a real ``SIGTERM``.  It asserts the economic
claim the server exists for, with buildstats as the proof:

1. a separate warm-up pass populates the persistent build cache for
   two spec variants (``full`` and ``minimal``);
2. the server subprocess starts and ``startup_builds`` shows **zero**
   automaton/table constructions and at least one cache hit -- the
   tables were loaded, not built;
3. a concurrent burst of ``/compile`` and ``/run`` requests across both
   variants all succeed, byte-identical to one-shot in-process
   compiles, and the serving-time buildstats deltas still show zero
   automaton/table builds plus a cache hit for the second variant's
   warm load;
4. ``/lint`` requests succeed (their LR-automaton *analysis* is
   checked separately, since lint legitimately constructs the automaton
   graph to search it);
5. ``SIGTERM`` drains cleanly: exit status 0, final metrics flushed
   with ``drain_clean: true``.

Run it::

    PYTHONPATH=src python -m repro.server.smoke
"""

from __future__ import annotations

import base64
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import urllib.request
from pathlib import Path
from typing import Dict, List, Optional, Tuple

_SOURCES = {
    "squares": """
program squares;
var i, s: integer;
begin
  s := 0;
  for i := 1 to 9 do s := s + i * i;
  writeln(s)
end.
""",
    "gcd": """
program gcd;
var a, b, t: integer;
begin
  a := 462; b := 1071;
  while b <> 0 do begin t := b; b := a mod b; a := t end;
  writeln(a)
end.
""",
}

_VARIANTS = ("full", "minimal")


def _request(
    port: int, method: str, path: str,
    body: Optional[Dict] = None, timeout: float = 60.0,
) -> Tuple[int, Dict]:
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def main() -> int:
    failures: List[str] = []

    def check(condition: bool, what: str) -> None:
        print(("ok   " if condition else "FAIL ") + what, flush=True)
        if not condition:
            failures.append(what)

    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as tmp:
        os.environ["REPRO_CACHE_DIR"] = str(Path(tmp) / "cache")
        metrics_path = Path(tmp) / "final_metrics.json"

        # 1. Warm the persistent cache for both variants, and compute
        # the one-shot references the server must match byte-for-byte.
        from repro.pipeline.service import ServiceRequest, execute_request

        references: Dict[Tuple[str, str], Dict] = {}
        for variant in _VARIANTS:
            for name, source in _SOURCES.items():
                references[(variant, name)] = execute_request(
                    ServiceRequest(
                        kind="run", name=name, source=source,
                        variant=variant, return_object=True,
                    )
                )
        print(f"warmed cache for {_VARIANTS} in {tmp}", flush=True)

        # 2. The server subprocess: fresh process, warm disk cache.
        env = dict(os.environ)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--jobs", "2", "--queue-limit", "8",
             "--deadline-ms", "30000",
             "--metrics-file", str(metrics_path)],
            env=env, stderr=subprocess.PIPE, text=True,
        )
        try:
            banner = proc.stderr.readline()
            print(banner.strip(), flush=True)
            port = int(banner.split(":")[2].split()[0])

            status, metrics = _request(port, "GET", "/metrics")
            startup = metrics.get("startup_builds", {})
            check(status == 200, "GET /metrics answers 200")
            check(
                startup.get("automaton_builds") == 0
                and startup.get("table_builds") == 0,
                f"startup built zero tables (got {startup})",
            )
            check(
                startup.get("cache_hits", 0) >= 1,
                f"startup warm-loaded from the persistent cache "
                f"(got {startup})",
            )

            # 3. Concurrent compile/run across both variants.
            jobs: List[Tuple[str, str, str]] = [
                (kind, variant, name)
                for kind in ("compile", "run")
                for variant in _VARIANTS
                for name in _SOURCES
            ] * 2
            results: List = [None] * len(jobs)

            def fire(index: int) -> None:
                import time

                kind, variant, name = jobs[index]
                try:
                    # A 429 is the admission controller doing its job;
                    # retryable by contract, so the client retries.
                    for _ in range(20):
                        results[index] = _request(
                            port, "POST", f"/{kind}",
                            {"name": name, "source": _SOURCES[name],
                             "variant": variant, "return_object": True},
                        )
                        status, body = results[index]
                        error = body.get("error") or {}
                        if status != 429 or not error.get("retryable"):
                            return
                        time.sleep(0.2)
                except Exception as error:  # noqa: BLE001
                    results[index] = (0, {"transport_error": repr(error)})

            threads = [
                threading.Thread(target=fire, args=(i,))
                for i in range(len(jobs))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)

            all_ok = True
            for index, outcome in enumerate(results):
                kind, variant, name = jobs[index]
                problem = ""
                if outcome is None:
                    problem = "request hung"
                else:
                    status, body = outcome
                    reference = references[(variant, name)]
                    if status != 200 or not body.get("ok"):
                        problem = (f"status {status}: "
                                   f"{body.get('error') or body}")
                    elif body["object_sha256"] != \
                            reference["object_sha256"]:
                        problem = "object digest mismatch"
                    elif base64.b64decode(body["object_b64"]) != \
                            base64.b64decode(reference["object_b64"]):
                        problem = "object records mismatch"
                    elif kind == "run" and body["output"] != \
                            reference["output"]:
                        problem = (f"output {body['output']!r} != "
                                   f"{reference['output']!r}")
                if problem:
                    all_ok = False
                    print(f"     {kind} {variant} {name}: {problem}",
                          flush=True)
            check(
                all_ok,
                f"{len(jobs)} concurrent compile/run requests all 200, "
                f"byte-identical to one-shot compiles",
            )

            status, metrics = _request(port, "GET", "/metrics")
            serving = metrics.get("buildstats", {})
            check(
                serving.get("automaton_builds") == 0
                and serving.get("table_builds") == 0,
                f"zero automaton/table rebuilds while serving "
                f"(got {serving})",
            )
            check(
                serving.get("cache_hits", 0) >= 1,
                f"second variant warm-loaded from the cache while "
                f"serving (got {serving})",
            )

            # 4. Lint both machine bindings.
            lint_ok = True
            for spec in ("toy", "s370:full"):
                status, body = _request(
                    port, "POST", "/lint", {"spec": spec}
                )
                if status != 200 or "lint" not in body:
                    lint_ok = False
            check(lint_ok, "lint requests answer 200 with a report")

            # 5. SIGTERM -> clean drain, flushed metrics, exit 0.
            proc.send_signal(signal.SIGTERM)
            returncode = proc.wait(timeout=60)
            check(returncode == 0, f"SIGTERM exit status 0 "
                                   f"(got {returncode})")
            final = json.loads(metrics_path.read_text())
            check(
                final.get("drain_clean") is True,
                "final metrics flushed with drain_clean: true",
            )
            check(
                final.get("requests_completed", 0) >= len(jobs) + 4,
                f"final metrics counted the work "
                f"({final.get('requests_completed')} requests)",
            )
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)

    print("PASS" if not failures else f"FAIL ({len(failures)} checks)",
          flush=True)
    return 0 if not failures else 1


if __name__ == "__main__":
    raise SystemExit(main())
