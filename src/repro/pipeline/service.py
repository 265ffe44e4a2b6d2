"""Request-scoped compile entrypoint shared by the batch driver and the
compile server.

One *request* is one fault-isolated unit of work: compile a Pascal
program (optionally running it on the simulator), or lint a spec.  This
module turns such a request into a JSON-ready payload dict -- the same
shape the batch driver has always reported per item and the compile
server returns on the wire -- and threads two robustness facilities
through every pipeline phase:

* **Cooperative deadlines** -- :class:`RequestProfiler` extends the
  phase profiler so that *entering* any phase past the request deadline
  raises a typed :class:`~repro.errors.DeadlineExceededError` naming
  the phase.  The server's asyncio watchdog is the hard backstop; this
  is the soft one that actually stops the worker at the next phase
  boundary instead of letting it burn CPU on an abandoned request.
* **Fault hooks** -- the same phase-boundary callback is how the chaos
  harness injects worker crashes and per-phase latency into a live
  server without patching pipeline internals.

A typed pipeline failure propagates as the :class:`~repro.errors.ReproError`
subclass it is; callers serialize it with
:func:`repro.errors.error_envelope`.  Simulator *traps* are not
failures: like the CLI, a trapped run is a completed request whose
payload records the trap.
"""

from __future__ import annotations

import base64
import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.errors import BadRequestError, DeadlineExceededError
from repro.pipeline.profile import PhaseProfiler

#: Request kinds the service executes.
KINDS = ("compile", "run", "lint")


class RequestProfiler(PhaseProfiler):
    """A phase profiler that enforces a deadline at phase boundaries.

    ``deadline`` is an absolute :func:`time.monotonic` timestamp (or
    ``None`` for no deadline).  ``fault_hook``, when set, is called with
    the phase name on entry to every phase -- the chaos harness's
    injection point for crashes and latency.  The hook runs *before*
    the deadline check, so injected latency in one phase is detected on
    entry to the next (or by the server's watchdog).
    """

    __slots__ = ("deadline", "started", "fault_hook")

    def __init__(
        self,
        deadline: Optional[float] = None,
        fault_hook: Optional[Callable[[str], None]] = None,
    ):
        super().__init__()
        self.deadline = deadline
        self.started = time.monotonic()
        self.fault_hook = fault_hook

    def phase(self, name: str):
        if self.fault_hook is not None:
            self.fault_hook(name)
        if self.deadline is not None:
            now = time.monotonic()
            if now > self.deadline:
                elapsed_ms = 1000.0 * (now - self.started)
                deadline_ms = 1000.0 * (self.deadline - self.started)
                raise DeadlineExceededError(
                    f"deadline exceeded entering phase {name!r} "
                    f"({elapsed_ms:.0f} ms elapsed, "
                    f"deadline {deadline_ms:.0f} ms)",
                    deadline_ms=deadline_ms,
                    elapsed_ms=elapsed_ms,
                    phase=name,
                    source="worker",
                )
        return super().phase(name)


@dataclass
class ServiceRequest:
    """One unit of work for :func:`execute_request`.

    ``kind`` is ``"compile"`` (object code only), ``"run"`` (compile +
    simulate) or ``"lint"`` (speclint a spec).  ``source`` carries the
    Pascal program for compile/run; ``spec`` names the lint target (a
    built-in like ``"s370:full"``/``"toy"``, or inline text via
    ``spec_text``).
    """

    kind: str = "compile"
    name: str = "<request>"
    source: str = ""
    variant: str = "full"
    table_mode: str = "dense"
    optimize: bool = True
    checks: bool = False
    fallback: bool = False
    opt_level: int = 1
    input_values: Optional[List[int]] = None
    max_steps: int = 2_000_000
    #: include the base64 object records in the payload (``/compile``).
    return_object: bool = False
    #: lint target (built-in spec name, e.g. ``"toy"``, ``"s370:full"``).
    spec: str = ""
    #: inline spec text for lint (used when ``spec`` is empty).
    spec_text: str = ""
    #: machine binding for inline lint text.
    target: str = "auto"

    @classmethod
    def from_wire(cls, body: Dict[str, object],
                  kind: str) -> "ServiceRequest":
        """Build a request from a decoded JSON body, strictly typed.

        Unknown fields are rejected, as are wrongly-typed values: the
        server's contract is a typed 400, never a traceback from deep
        inside the pipeline.
        """
        if not isinstance(body, dict):
            raise BadRequestError(
                f"request body must be a JSON object, got "
                f"{type(body).__name__}", detail="bad-body")
        allowed = {
            "name": str, "source": str, "variant": str,
            "table_mode": str, "optimize": bool, "checks": bool,
            "fallback": bool, "opt_level": int, "input_values": list,
            "max_steps": int, "return_object": bool,
            "spec": str, "spec_text": str, "target": str,
        }
        fields: Dict[str, object] = {}
        for key, value in body.items():
            expected = allowed.get(str(key))
            if expected is None:
                raise BadRequestError(
                    f"unknown request field {key!r}", detail="bad-field")
            if not isinstance(value, expected) or (
                expected is int and isinstance(value, bool)
            ):
                raise BadRequestError(
                    f"field {key!r} must be {expected.__name__}, got "
                    f"{type(value).__name__}", detail="bad-field")
            fields[str(key)] = value
        if "input_values" in fields:
            values = fields["input_values"]
            if not all(isinstance(v, int) and not isinstance(v, bool)
                       for v in values):  # type: ignore[union-attr]
                raise BadRequestError(
                    "field 'input_values' must be a list of integers",
                    detail="bad-field")
        request = cls(kind=kind, **fields)  # type: ignore[arg-type]
        request.validate()
        return request

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise BadRequestError(
                f"unknown request kind {self.kind!r}; "
                f"expected one of {KINDS}", detail="bad-kind")
        if self.kind == "lint":
            if not self.spec and not self.spec_text:
                raise BadRequestError(
                    "lint request needs 'spec' (built-in name) or "
                    "'spec_text'", detail="bad-field")
        elif not self.source:
            raise BadRequestError(
                f"{self.kind} request needs non-empty 'source'",
                detail="bad-field")
        if self.variant not in ("minimal", "medium", "full"):
            raise BadRequestError(
                f"unknown variant {self.variant!r}", detail="bad-field")
        if self.table_mode not in ("dense", "compressed"):
            raise BadRequestError(
                f"unknown table_mode {self.table_mode!r}",
                detail="bad-field")
        if self.opt_level not in (0, 1, 2, 3, 4):
            raise BadRequestError(
                f"opt_level must be 0, 1, 2, 3 or 4, "
                f"got {self.opt_level!r}",
                detail="bad-field")


def lint_inputs(spec: str, target: str = "auto",
                inline_text: str = ""):
    """Resolve a lint spec argument to (name, text, machine, semops).

    ``spec`` is a built-in name (``"toy"``, ``"s370"``,
    ``"s370:VARIANT"``) or a file path; ``spec_text`` supplies inline
    text instead (the server path, which has no filesystem access).
    Shared by ``repro lint`` and the ``/lint`` endpoint.
    """
    if spec == "toy":
        from repro.machines.toy.spec import machine_description, spec_text

        return "toy", spec_text(), machine_description(), None
    if spec == "s370" or spec.startswith("s370:"):
        from repro.machines.s370.spec import (
            extra_semops,
            machine_description,
            spec_text,
        )

        variant = spec.partition(":")[2] or "full"
        return (
            spec,
            spec_text(variant),
            machine_description(),
            extra_semops(),
        )
    if spec:
        name, text = spec, Path(spec).read_text()
    else:
        name, text = "<inline>", inline_text
    if target == "s370":
        from repro.machines.s370.spec import extra_semops, machine_description

        return name, text, machine_description(), extra_semops()
    if target == "toy":
        from repro.machines.toy.spec import machine_description

        return name, text, machine_description(), None
    from repro.core.machine import simple_machine

    return name, text, simple_machine("testmachine"), None


def _execute_lint(request: ServiceRequest) -> Dict[str, object]:
    import json

    from repro.analysis import Diagnostic, LintReport, run_lint
    from repro.core.buildcache import cached_build
    from repro.errors import ReproError

    name, text, machine, extra = lint_inputs(
        request.spec, request.target, inline_text=request.spec_text
    )
    try:
        # The persistent cache makes a re-lint of a known spec a table
        # *load*, not a rebuild -- the server's warm-table claim holds
        # across all three endpoints.
        build = cached_build(text, machine, extra_semops=extra)
    except ReproError as error:
        report = LintReport(spec_name=name, target=machine.name)
        report.extend([
            Diagnostic(
                code="SL000",
                severity="error",
                message=f"specification failed to build: {error}",
                line=getattr(error, "line", 0) or 0,
            )
        ])
    else:
        report = run_lint(build, spec_name=name)
    payload: Dict[str, object] = {
        "name": request.name, "kind": "lint", "ok": True,
    }
    payload["lint"] = json.loads(report.to_json())
    payload["worst"] = report.worst()
    return payload


def _execute_baseline(
    request: ServiceRequest, profiler: PhaseProfiler
) -> Dict[str, object]:
    """The degraded lane: the hand-written baseline generator.

    Used by the server's circuit breaker when the table-driven path has
    faulted repeatedly -- same IF, same encoder, same runtime
    conventions, no skeletal parse.
    """
    from repro.baseline import compile_baseline
    from repro.machines.s370 import runtime
    from repro.machines.s370.simulator import Simulator

    with profiler.phase("select"):
        program = compile_baseline(request.source)
    payload: Dict[str, object] = {
        "name": request.name,
        "kind": request.kind,
        "ok": True,
        "generator": "baseline",
        "routines": 0,
        "code_bytes": len(program.module.code),
        "object_sha256": hashlib.sha256(
            program.object_records
        ).hexdigest(),
        "fallback_routines": [],
        "degraded_events": [],
    }
    if request.return_object:
        payload["object_b64"] = base64.b64encode(
            program.object_records
        ).decode("ascii")
    if request.kind == "run":
        simulator = Simulator(input_values=request.input_values)
        simulator.load_image(runtime.ExecutableImage(
            code=program.module.code,
            entry=program.module.entry,
            data=program.data,
            relocations=list(program.module.relocations),
        ))
        with profiler.phase("simulate"):
            result = simulator.run(max_steps=request.max_steps)
        payload["output"] = result.output
        payload["trap"] = result.trap
        payload["steps"] = result.steps
        if result.trap is not None:
            payload["ok"] = False
    return payload


def execute_request(
    request: ServiceRequest,
    profiler: Optional[PhaseProfiler] = None,
    use_baseline: bool = False,
) -> Dict[str, object]:
    """Execute one request; returns the JSON-ready payload.

    Raises the pipeline's typed :class:`~repro.errors.ReproError` on
    failure -- callers wanting an envelope instead of an exception wrap
    this with :func:`repro.errors.error_envelope`.  ``use_baseline``
    routes compile/run requests through the baseline generator (the
    circuit breaker's degraded lane).  A compile/run payload's
    ``degraded_events`` lists the optimization levels the compile gave
    up (``stats["degraded"]``); it is a separate key from the server's
    ``degraded`` flag, which marks the breaker's baseline lane.
    """
    request.validate()
    prof = profiler if profiler is not None else PhaseProfiler()
    start = time.perf_counter()
    if request.kind == "lint":
        payload = _execute_lint(request)
    elif use_baseline:
        payload = _execute_baseline(request, prof)
    else:
        from repro.pascal.compiler import compile_source

        compiled = compile_source(
            request.source,
            variant=request.variant,
            optimize=request.optimize,
            checks=request.checks,
            fallback=request.fallback,
            table_mode=request.table_mode,
            profiler=prof,
            opt_level=request.opt_level,
        )
        payload = {
            "name": request.name,
            "kind": request.kind,
            "ok": True,
            "generator": "table",
            "routines": len(compiled.ir.routines),
            "code_bytes": len(compiled.module.code),
            "object_sha256": hashlib.sha256(
                compiled.object_records
            ).hexdigest(),
            "fallback_routines": [
                event.routine for event in compiled.fallback_events
            ],
            "degraded_events": compiled.stats["degraded"],
        }
        if request.return_object:
            payload["object_b64"] = base64.b64encode(
                compiled.object_records
            ).decode("ascii")
        if request.kind == "run":
            result = compiled.run(
                max_steps=request.max_steps,
                input_values=request.input_values,
                profiler=prof,
            )
            payload["output"] = result.output
            payload["trap"] = result.trap
            payload["steps"] = result.steps
            if result.trap is not None:
                payload["ok"] = False
    payload["seconds"] = time.perf_counter() - start
    payload["profile"] = prof.as_dict()
    return payload
