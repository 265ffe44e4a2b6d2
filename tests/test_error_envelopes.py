"""Stable error envelopes: every typed error class maps to a fixed wire
code, HTTP status and retryability, and the envelope carries the same
message the CLI prints (``error: {message}``) plus the structured
context fields the error object exposes in-process.

One test case per class registered in ``ERROR_CODES``; a completeness
check fails if the registry grows a class these tests don't cover.
"""

import json

import pytest

from repro import errors as E
from repro.errors import (
    ERROR_CODES,
    _CONTEXT_FIELDS,
    ReproError,
    error_code,
    error_envelope,
)

# (instance, expected context subset) per registered class.  The code,
# HTTP status and retryable flag are asserted straight from ERROR_CODES
# -- the registry IS the contract; these cases pin the class->entry
# mapping and the context serialization.
CASES = [
    (E.SpecSyntaxError("unexpected token ';'", line=4), {"line": 4}),
    (E.SpecTypeError("operand class mismatch", line=2), {"line": 2}),
    (E.SpecError("missing section", line=7), {"line": 7}),
    (E.TableError("unresolvable conflict in state 3"), {}),
    (E.GrammarError("unknown symbol 'frob' in production"), {}),
    (
        E.BuildCacheError("artifact truncated", reason="truncated"),
        {"reason": "truncated"},
    ),
    (E.IFError("dangling operand in linearized form"), {}),
    (E.ShapeError("no address for temporary t3"), {}),
    (
        E.CodeGenBlockedError(
            "parser blocked in state 7",
            state=7,
            lookahead="store",
            stack=[(0, "$"), (7, "load")],
            expected=["store", "load"],
        ),
        {"state": 7, "lookahead": "store",
         "expected": ["load", "store"]},
    ),
    (
        E.ChainLoopError("chain-rule loop", state=3, stack=[(3, "a")],
                         steps=512),
        {"state": 3, "steps": 512},
    ),
    (E.StepBudgetError("parse exceeded budget", budget=9), {"budget": 9}),
    (
        E.RegisterPressureError(
            "cannot allocate", cls_name="r", occupancy={1: 2, 3: 1}
        ),
        {"cls_name": "r", "occupancy": {"1": 2, "3": 1}},
    ),
    (E.CodeGenError("generator stopped"), {}),
    (
        E.DataflowError("liveness: facts failed their integrity check",
                        analysis="liveness"),
        {"analysis": "liveness"},
    ),
    (E.AssemblyError("no encoding for opcode"), {}),
    (E.LoaderError("relocation out of range"), {}),
    (
        E.MemoryFaultError("store at 0x99999",
                           psw={"pc": 8, "cc": 0}),
        {"psw": {"pc": 8, "cc": 0}},
    ),
    (
        E.AlignmentFaultError("halfword load at odd address",
                              psw={"pc": 12, "cc": 1}),
        {"psw": {"pc": 12, "cc": 1}},
    ),
    (E.InvalidOpcodeError("byte 0xff is not an opcode"), {"psw": None}),
    (
        E.RegisterPairFaultError("MR into odd pair",
                                 psw={"pc": 4, "cc": 0}),
        {"psw": {"pc": 4, "cc": 0}},
    ),
    (E.StepLimitError("instruction budget exhausted"), {"psw": None}),
    (E.SimulatorError("invalid machine state"), {"psw": None}),
    (E.PascalSyntaxError("expected ';'", line=3), {"line": 3}),
    (E.PascalSemaError("undeclared variable 'x'", line=5), {"line": 5}),
    (E.PascalError("front end failed", line=1), {"line": 1}),
    (E.InterpError("division by zero"), {}),
    (
        E.BadRequestError("no such endpoint", detail="bad-endpoint"),
        {"detail": "bad-endpoint"},
    ),
    (
        E.RequestTooLargeError("body too large", content_length=2048,
                               limit=1024),
        {"content_length": 2048, "limit": 1024},
    ),
    (
        E.ServerOverloadedError("queue full", queue_depth=5,
                                queue_limit=4, retry_after_s=2.0),
        {"queue_depth": 5, "queue_limit": 4, "retry_after_s": 2.0},
    ),
    (
        E.DeadlineExceededError("too slow", deadline_ms=100.0,
                                elapsed_ms=150.0, phase="select",
                                source="worker"),
        {"deadline_ms": 100.0, "elapsed_ms": 150.0,
         "phase": "select", "source": "worker"},
    ),
    (
        E.WorkerCrashError("worker crashed: ValueError: boom",
                           original_type="ValueError"),
        {"original_type": "ValueError"},
    ),
    (E.ServerError("server-side failure"), {}),
    (E.ReproError("generic failure"), {}),
]


def _registered_context_keys(error) -> set:
    keys = set()
    for klass in type(error).__mro__:
        keys.update(_CONTEXT_FIELDS.get(klass.__name__, ()))
    return keys


@pytest.mark.parametrize(
    "error, context", CASES, ids=[type(e).__name__ for e, _ in CASES]
)
def test_envelope_is_stable(error, context):
    code, status, retryable = ERROR_CODES[type(error).__name__]
    envelope = error_envelope(error)
    assert envelope["code"] == code
    assert envelope["http_status"] == status
    assert envelope["retryable"] is retryable
    assert envelope["type"] == type(error).__name__
    # The CLI prints f"error: {error}"; the wire carries the same text.
    assert envelope["message"] == str(error)
    for key, value in context.items():
        assert envelope["context"][key] == value
    # Exactly the registered context fields, no more, no less.
    assert set(envelope["context"]) == _registered_context_keys(error)
    json.dumps(envelope)  # wire-serializable as-is


def test_every_registered_class_is_covered():
    assert {type(e).__name__ for e, _ in CASES} == set(ERROR_CODES)


def test_every_context_class_is_registered():
    assert set(_CONTEXT_FIELDS) <= set(ERROR_CODES)


def test_unregistered_exception_wrapped_as_worker_crash():
    envelope = error_envelope(ValueError("boom"))
    assert envelope["code"] == "E_WORKER_CRASH"
    assert envelope["http_status"] == 500
    assert envelope["retryable"] is True
    assert envelope["context"]["original_type"] == "ValueError"
    assert "boom" in envelope["message"]
    assert "Traceback" not in json.dumps(envelope)


def test_most_derived_class_wins_via_mro():
    class FancySyntaxError(E.PascalSyntaxError):
        pass

    error = FancySyntaxError("nope", line=9)
    assert error_code(error) == "E_PASCAL_SYNTAX"
    envelope = error_envelope(error)
    assert envelope["code"] == "E_PASCAL_SYNTAX"
    assert envelope["context"]["line"] == 9


def test_error_code_defaults_to_e_repro():
    assert error_code(KeyError("x")) == "E_REPRO"
    assert error_code(ReproError("x")) == "E_REPRO"


def test_real_pascal_error_matches_cli_text():
    from repro.errors import PascalError
    from repro.pascal.compiler import compile_source

    with pytest.raises(PascalError) as info:
        compile_source("program p; begin x := ; end.")
    envelope = error_envelope(info.value)
    assert envelope["code"].startswith("E_PASCAL")
    assert envelope["message"] == str(info.value)
    assert envelope["context"]["line"] >= 1


def test_real_blocked_error_carries_cli_diagnosis():
    """The envelope's context and message for a genuine blocked parse
    agree with what the CLI renders (the ``render_expected`` text)."""
    from repro.analysis import render_expected
    from repro.errors import CodeGenBlockedError
    from repro.ir.linear import IFToken
    from repro.pascal.compiler import cached_build

    build = cached_build("full")
    bogus = [IFToken("store"), IFToken("store"), IFToken("store")]
    with pytest.raises(CodeGenBlockedError) as info:
        build.code_generator.generate(bogus)
    error = info.value
    envelope = error_envelope(error)
    assert envelope["context"]["state"] == error.state
    assert envelope["context"]["expected"] == error.expected
    assert envelope["context"]["stack"]
    assert render_expected(build.sdts, error.expected) in \
        envelope["message"]
