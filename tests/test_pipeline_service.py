"""The request-scoped service entrypoint: payload shapes, strict wire
decoding, cooperative deadlines, fault hooks, the baseline lane."""

import base64
import hashlib
import time

import pytest

from repro.errors import BadRequestError, DeadlineExceededError
from repro.pascal.interp import interpret_source
from repro.pipeline.service import (
    RequestProfiler,
    ServiceRequest,
    execute_request,
    lint_inputs,
)

PROGRAM = """
program service;
var i, s: integer;
begin
  s := 0;
  for i := 1 to 6 do s := s + i * i;
  writeln(s)
end.
"""


class TestExecuteRequest:
    def test_compile_payload_facts(self):
        payload = execute_request(ServiceRequest(
            kind="compile", name="p", source=PROGRAM, return_object=True,
        ))
        assert payload["ok"] is True
        assert payload["kind"] == "compile"
        assert payload["name"] == "p"
        assert payload["generator"] == "table"
        assert payload["routines"] >= 1
        assert payload["code_bytes"] > 0
        records = base64.b64decode(payload["object_b64"])
        assert hashlib.sha256(records).hexdigest() == \
            payload["object_sha256"]
        assert "output" not in payload
        assert payload["seconds"] >= 0.0
        assert isinstance(payload["profile"], dict)

    def test_run_payload_matches_interpreter(self):
        payload = execute_request(ServiceRequest(
            kind="run", name="p", source=PROGRAM,
        ))
        assert payload["ok"] is True
        assert payload["trap"] is None
        assert payload["steps"] > 0
        assert payload["output"] == interpret_source(PROGRAM)

    def test_typed_error_propagates(self):
        from repro.errors import PascalError

        with pytest.raises(PascalError):
            execute_request(ServiceRequest(
                kind="compile", source="program p; begin x := ; end.",
            ))

    def test_lint_builtin_spec(self):
        payload = execute_request(ServiceRequest(kind="lint", spec="toy"))
        assert payload["ok"] is True
        assert payload["kind"] == "lint"
        assert "worst" in payload
        assert payload["lint"]["spec"] == "toy"

    def test_lint_broken_inline_text_reports_not_raises(self):
        payload = execute_request(ServiceRequest(
            kind="lint", spec_text="this is not a spec", target="toy",
        ))
        assert payload["ok"] is True
        codes = [d["code"] for d in payload["lint"]["diagnostics"]]
        assert "SL000" in codes
        assert payload["worst"] == "error"

    def test_baseline_lane_matches_interpreter(self):
        payload = execute_request(
            ServiceRequest(kind="run", name="b", source=PROGRAM),
            use_baseline=True,
        )
        assert payload["ok"] is True
        assert payload["generator"] == "baseline"
        assert payload["output"] == interpret_source(PROGRAM)


class TestFromWire:
    def test_round_trip_known_fields(self):
        request = ServiceRequest.from_wire(
            {"name": "x", "source": PROGRAM, "variant": "minimal",
             "table_mode": "compressed", "optimize": False,
             "opt_level": 0, "max_steps": 1000, "return_object": True,
             "input_values": [1, 2, 3]},
            "run",
        )
        assert request.kind == "run"
        assert request.variant == "minimal"
        assert request.table_mode == "compressed"
        assert request.optimize is False
        assert request.input_values == [1, 2, 3]

    def test_non_dict_body_rejected(self):
        with pytest.raises(BadRequestError) as info:
            ServiceRequest.from_wire(["not", "a", "dict"], "compile")
        assert info.value.detail == "bad-body"

    def test_unknown_field_rejected(self):
        with pytest.raises(BadRequestError) as info:
            ServiceRequest.from_wire(
                {"source": PROGRAM, "frobnicate": 1}, "compile"
            )
        assert info.value.detail == "bad-field"
        assert "frobnicate" in str(info.value)

    def test_removed_predecode_knob_rejected(self):
        # The simulator's dispatch lane is not selectable: a request
        # still naming it gets the typed unknown-field 400.
        with pytest.raises(BadRequestError) as info:
            ServiceRequest.from_wire(
                {"source": PROGRAM, "predecode": True}, "run"
            )
        assert info.value.detail == "bad-field"
        assert "predecode" in str(info.value)

    def test_wrong_type_rejected(self):
        with pytest.raises(BadRequestError) as info:
            ServiceRequest.from_wire(
                {"source": PROGRAM, "optimize": "yes"}, "compile"
            )
        assert info.value.detail == "bad-field"

    def test_bool_is_not_an_int(self):
        with pytest.raises(BadRequestError):
            ServiceRequest.from_wire(
                {"source": PROGRAM, "opt_level": True}, "compile"
            )

    def test_input_values_must_be_integers(self):
        with pytest.raises(BadRequestError):
            ServiceRequest.from_wire(
                {"source": PROGRAM, "input_values": [1, True]}, "run"
            )

    def test_missing_source_rejected(self):
        with pytest.raises(BadRequestError):
            ServiceRequest.from_wire({}, "compile")

    def test_lint_needs_spec_or_text(self):
        with pytest.raises(BadRequestError):
            ServiceRequest.from_wire({}, "lint")
        ServiceRequest.from_wire({"spec": "toy"}, "lint")
        ServiceRequest.from_wire({"spec_text": "x"}, "lint")

    @pytest.mark.parametrize("field, value", [
        ("variant", "imaginary"),
        ("table_mode", "sparse"),
        ("opt_level", 9),
    ])
    def test_bad_enum_values_rejected(self, field, value):
        with pytest.raises(BadRequestError):
            ServiceRequest.from_wire(
                {"source": PROGRAM, field: value}, "compile"
            )

    def test_unknown_kind_rejected(self):
        with pytest.raises(BadRequestError) as info:
            ServiceRequest(kind="zap", source=PROGRAM).validate()
        assert info.value.detail == "bad-kind"


class TestRequestProfiler:
    def test_deadline_trips_at_phase_boundary(self):
        profiler = RequestProfiler(deadline=time.monotonic() - 0.01)
        with pytest.raises(DeadlineExceededError) as info:
            profiler.phase("select")
        error = info.value
        assert error.phase == "select"
        assert error.source == "worker"
        assert error.elapsed_ms >= 0.0

    def test_no_deadline_never_trips(self):
        profiler = RequestProfiler()
        with profiler.phase("select"):
            pass
        assert "select" in profiler.as_dict()

    def test_fault_hook_sees_every_phase_entry(self):
        seen = []
        profiler = RequestProfiler(fault_hook=seen.append)
        for name in ("parse", "shape", "select"):
            with profiler.phase(name):
                pass
        assert seen == ["parse", "shape", "select"]

    def test_hook_runs_before_deadline_check(self):
        """Injected faults must win over the deadline: the chaos
        harness relies on crash injection even in expired requests."""

        def explode(phase):
            raise RuntimeError("injected")

        profiler = RequestProfiler(
            deadline=time.monotonic() - 1.0, fault_hook=explode
        )
        with pytest.raises(RuntimeError):
            profiler.phase("select")


class TestLintInputs:
    def test_builtin_toy(self):
        name, text, machine, extra = lint_inputs("toy")
        assert name == "toy"
        assert text
        assert extra is None

    def test_s370_variant(self):
        name, text, machine, extra = lint_inputs("s370:minimal")
        assert name == "s370:minimal"
        assert machine.name
        assert extra

    def test_inline_text_with_target(self):
        name, text, machine, extra = lint_inputs(
            "", target="s370", inline_text="whatever"
        )
        assert name == "<inline>"
        assert text == "whatever"
