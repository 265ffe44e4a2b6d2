"""Exception hierarchy for the CoGG reproduction.

Every layer of the system raises a subclass of :class:`ReproError`, so a
driver can catch one type and still distinguish where in the pipeline the
failure occurred (the spec, table construction, shaping, code generation,
assembly/loading, or simulation).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this package."""


class SpecError(ReproError):
    """An error in a code-generator specification (syntax or semantics).

    Carries an optional source line number so that spec authors get
    pin-pointed diagnostics, mirroring CoGG's own type-checked symbol table
    (paper section 2, footnote 2).
    """

    def __init__(self, message: str, line: int = 0):
        self.line = line
        if line:
            message = f"line {line}: {message}"
        super().__init__(message)


class SpecSyntaxError(SpecError):
    """The spec text does not follow the Appendix 2 surface syntax."""


class SpecTypeError(SpecError):
    """An identifier is used inconsistently with its declaration section."""


class TableError(ReproError):
    """LR table construction failed (e.g. unresolvable grammar defect)."""


class GrammarError(ReproError):
    """The SDTS grammar itself is malformed (unknown symbols, bad LHS)."""


class BuildCacheError(ReproError):
    """A persistent build-cache artifact could not be used.

    Raised (and normally caught by the cache itself, which falls back to
    a fresh build) when an artifact is truncated, corrupted, checksummed
    wrong, or was produced by a different spec/machine/version.
    ``reason`` is a short machine-readable tag: ``"truncated"``,
    ``"bad-magic"``, ``"bad-checksum"``, ``"stale-fingerprint"``,
    ``"bad-section"``.
    """

    def __init__(self, message: str, reason: str = "corrupt"):
        self.reason = reason
        super().__init__(message)


class IFError(ReproError):
    """Malformed intermediate-form input (bad tree, bad linearization)."""


class ShapeError(ReproError):
    """The shaper could not lay out storage or resolve an address."""


class CodeGenError(ReproError):
    """The table-driven code generator stopped.

    Per the paper's correctness argument: a correct specification never
    emits wrong code -- instead the parser "will stop and signal an error".
    This is that signal.
    """


class CodeGenBlockedError(CodeGenError):
    """The skeletal parser blocked: no action for the current lookahead.

    Carries the full machine state at the blocking point so drivers can
    diagnose (or recover from) the unanticipated IF prefix: the LR state
    id, the offending lookahead token, a parse-stack snapshot of
    ``(state, symbol)`` pairs, and the set of symbols the state *would*
    have accepted.
    """

    def __init__(
        self,
        message: str,
        state: int = -1,
        lookahead=None,
        stack=(),
        expected=(),
    ):
        self.state = state
        self.lookahead = lookahead
        self.stack = list(stack)
        self.expected = sorted(expected)
        super().__init__(message)


class ChainLoopError(CodeGenError):
    """The parser reduced forever without consuming input.

    Chain-rule cycles (``A ::= B``, ``B ::= A``) are a classic
    Graham-Glanville failure mode: every reduction prefixes a left-hand
    side that immediately re-enters through the shift path, so the parse
    makes no progress.  The watchdog trips when no input token has been
    consumed *and* the parse stack has reached no new minimum depth for
    a configurable number of steps.
    """

    def __init__(self, message: str, state: int = -1, stack=(),
                 steps: int = 0):
        self.state = state
        self.stack = list(stack)
        self.steps = steps
        super().__init__(message)


class StepBudgetError(CodeGenError):
    """The parse exceeded its configured total step budget."""

    def __init__(self, message: str, budget: int = 0):
        self.budget = budget
        super().__init__(message)


class RegisterPressureError(CodeGenError):
    """No register of a requested class could be made available.

    ``cls_name`` is the requested register class and ``occupancy`` maps
    each register number of the underlying pool to its current use count
    (busy registers only), so diagnostics can show exactly who holds the
    file when an allocation fails.
    """

    def __init__(self, message: str, cls_name: str = "",
                 occupancy=None):
        self.cls_name = cls_name
        self.occupancy = dict(occupancy or {})
        if cls_name:
            held = ", ".join(
                f"r{n}:{uses}" for n, uses in sorted(self.occupancy.items())
            ) or "none busy"
            message = f"{message} [class {cls_name!r}; occupancy: {held}]"
        super().__init__(message)


class DataflowError(CodeGenError):
    """An optimizer layer failed during a compile.

    :func:`repro.pascal.compiler.compile_program` raises this for any
    exception escaping the spill planner or the global passes;
    ``analysis`` names the layer (``"spillplan"`` or ``"globalopt"``)
    and the message carries the original type and message.  The
    compiler catches it and recompiles one optimization level lower, so
    it never escapes a compile at -O2..-O4.
    """

    def __init__(self, message: str, analysis: str = ""):
        self.analysis = analysis
        super().__init__(message)


class AssemblyError(ReproError):
    """Instruction encoding or object-module emission failed."""


class LoaderError(ReproError):
    """Object-module loading / relocation failed."""


class SimulatorError(ReproError):
    """The target-machine simulator hit an invalid state.

    ``psw`` (when provided) is a program-status snapshot at the fault:
    ``{"pc": ..., "cc": ..., "regs": (...)}``.  Subclasses distinguish
    the trap kind so the fault-injection harness and tests can assert on
    precise failure modes rather than string-matching messages.
    """

    def __init__(self, message: str, psw=None):
        self.psw = dict(psw) if psw else None
        if self.psw:
            message = (
                f"{message} [pc={self.psw['pc']:#x} cc={self.psw['cc']}]"
            )
        super().__init__(message)


class MemoryFaultError(SimulatorError):
    """A load/store touched an address outside simulated memory."""


class AlignmentFaultError(SimulatorError):
    """A fullword/halfword access was not aligned (strict mode only)."""


class InvalidOpcodeError(SimulatorError):
    """Instruction fetch hit a byte that is not a known opcode."""


class RegisterPairFaultError(SimulatorError):
    """An even/odd register-pair instruction named an odd first register.

    MR into an odd pair, DR/D on an odd dividend register, or a double
    shift (SLDA/SRDA/SLDL/SRDL) of an odd pair is a specification
    exception on the real machine; the simulator raises this typed trap
    (with full PSW context, like every other trap) instead of a bare
    :class:`SimulatorError`."""


class StepLimitError(SimulatorError):
    """The instruction-count budget was exhausted (runaway program)."""


class PascalError(ReproError):
    """Front-end error in the Pascal host compiler."""

    def __init__(self, message: str, line: int = 0):
        self.line = line
        if line:
            message = f"line {line}: {message}"
        super().__init__(message)


class PascalSyntaxError(PascalError):
    """Pascal source does not parse."""


class PascalSemaError(PascalError):
    """Pascal source fails static-semantic checking."""


class InterpError(ReproError):
    """The reference Pascal interpreter hit a runtime error."""


class ServerError(ReproError):
    """An error raised by the compile server itself (not the pipeline)."""


class BadRequestError(ServerError):
    """The request body could not be understood (malformed JSON, wrong
    types, missing fields).  ``detail`` is a short machine-readable tag
    (``"bad-json"``, ``"bad-field"``, ``"bad-kind"``...)."""

    def __init__(self, message: str, detail: str = "bad-request"):
        self.detail = detail
        super().__init__(message)


class RequestTooLargeError(ServerError):
    """The request body exceeds the server's configured byte limit."""

    def __init__(self, message: str, content_length: int = 0,
                 limit: int = 0):
        self.content_length = content_length
        self.limit = limit
        super().__init__(message)


class ServerOverloadedError(ServerError):
    """Admission control rejected the request: the bounded queue is full.

    ``retry_after_s`` is the server's backoff hint (also sent as the
    HTTP ``Retry-After`` header)."""

    def __init__(self, message: str, queue_depth: int = 0,
                 queue_limit: int = 0, retry_after_s: float = 1.0):
        self.queue_depth = queue_depth
        self.queue_limit = queue_limit
        self.retry_after_s = retry_after_s
        super().__init__(message)


class DeadlineExceededError(ServerError):
    """A request ran past its deadline.

    Raised cooperatively by the request profiler at the next phase
    boundary, or synthesized by the server's watchdog when the worker
    did not reach a boundary in time.  ``phase`` names the pipeline
    phase that was entered (or running) when the deadline tripped;
    ``source`` is ``"worker"`` (cooperative) or ``"watchdog"``."""

    def __init__(self, message: str, deadline_ms: float = 0.0,
                 elapsed_ms: float = 0.0, phase: str = "",
                 source: str = "worker"):
        self.deadline_ms = deadline_ms
        self.elapsed_ms = elapsed_ms
        self.phase = phase
        self.source = source
        super().__init__(message)


class WorkerCrashError(ServerError):
    """A request worker died with a *non-typed* exception.

    The raw exception never reaches the wire: the server wraps it so
    every response is still a typed envelope.  ``original_type`` names
    the exception class that escaped."""

    def __init__(self, message: str, original_type: str = ""):
        self.original_type = original_type
        super().__init__(message)


# ---- stable error envelopes -------------------------------------------------
#
# Every typed error maps to a wire-stable ``code`` and an HTTP status,
# so the compile server (and any other transport) can serialize a
# failure without losing the context the CLI prints.  The registry maps
# the most-derived class first (``error_envelope`` walks the MRO), and
# ``_CONTEXT_FIELDS`` lists the structured attributes each class carries
# beyond its message.

#: class name -> (stable wire code, HTTP status, retryable).
ERROR_CODES = {
    "SpecSyntaxError": ("E_SPEC_SYNTAX", 422, False),
    "SpecTypeError": ("E_SPEC_TYPE", 422, False),
    "SpecError": ("E_SPEC", 422, False),
    "TableError": ("E_TABLE", 500, False),
    "GrammarError": ("E_GRAMMAR", 500, False),
    "BuildCacheError": ("E_BUILD_CACHE", 500, True),
    "IFError": ("E_IF", 422, False),
    "ShapeError": ("E_SHAPE", 422, False),
    "CodeGenBlockedError": ("E_CODEGEN_BLOCKED", 422, False),
    "ChainLoopError": ("E_CHAIN_LOOP", 422, False),
    "StepBudgetError": ("E_STEP_BUDGET", 422, False),
    "RegisterPressureError": ("E_REGISTER_PRESSURE", 422, False),
    "DataflowError": ("E_DATAFLOW", 500, False),
    "CodeGenError": ("E_CODEGEN", 422, False),
    "AssemblyError": ("E_ASSEMBLY", 500, False),
    "LoaderError": ("E_LOADER", 422, False),
    "MemoryFaultError": ("E_SIM_MEMORY_FAULT", 422, False),
    "AlignmentFaultError": ("E_SIM_ALIGNMENT_FAULT", 422, False),
    "InvalidOpcodeError": ("E_SIM_INVALID_OPCODE", 422, False),
    "RegisterPairFaultError": ("E_SIM_REGISTER_PAIR", 422, False),
    "StepLimitError": ("E_SIM_STEP_LIMIT", 422, False),
    "SimulatorError": ("E_SIMULATOR", 422, False),
    "PascalSyntaxError": ("E_PASCAL_SYNTAX", 422, False),
    "PascalSemaError": ("E_PASCAL_SEMA", 422, False),
    "PascalError": ("E_PASCAL", 422, False),
    "InterpError": ("E_INTERP", 422, False),
    "BadRequestError": ("E_BAD_REQUEST", 400, False),
    "RequestTooLargeError": ("E_REQUEST_TOO_LARGE", 413, False),
    "ServerOverloadedError": ("E_OVERLOADED", 429, True),
    "DeadlineExceededError": ("E_DEADLINE_EXCEEDED", 504, True),
    "WorkerCrashError": ("E_WORKER_CRASH", 500, True),
    "ServerError": ("E_SERVER", 500, False),
    "ReproError": ("E_REPRO", 500, False),
}

#: class name -> structured context attributes serialized alongside the
#: message (same facts the CLI renders, in machine-readable form).
_CONTEXT_FIELDS = {
    "SpecError": ("line",),
    "SpecSyntaxError": ("line",),
    "SpecTypeError": ("line",),
    "BuildCacheError": ("reason",),
    "CodeGenBlockedError": ("state", "lookahead", "stack", "expected"),
    "ChainLoopError": ("state", "stack", "steps"),
    "StepBudgetError": ("budget",),
    "RegisterPressureError": ("cls_name", "occupancy"),
    "DataflowError": ("analysis",),
    "SimulatorError": ("psw",),
    "MemoryFaultError": ("psw",),
    "AlignmentFaultError": ("psw",),
    "InvalidOpcodeError": ("psw",),
    "RegisterPairFaultError": ("psw",),
    "StepLimitError": ("psw",),
    "PascalError": ("line",),
    "PascalSyntaxError": ("line",),
    "PascalSemaError": ("line",),
    "BadRequestError": ("detail",),
    "RequestTooLargeError": ("content_length", "limit"),
    "ServerOverloadedError": ("queue_depth", "queue_limit",
                              "retry_after_s"),
    "DeadlineExceededError": ("deadline_ms", "elapsed_ms", "phase",
                              "source"),
    "WorkerCrashError": ("original_type",),
}


def _jsonable(value):
    """Coerce a context attribute to plain JSON-serializable data."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return str(value)


def error_code(error: BaseException) -> str:
    """The stable wire code for a typed error (most-derived class wins)."""
    for klass in type(error).__mro__:
        if klass.__name__ in ERROR_CODES:
            return ERROR_CODES[klass.__name__][0]
    return "E_REPRO"


def error_envelope(error: BaseException) -> dict:
    """Serialize a typed error to the stable JSON envelope.

    The envelope carries the same text the CLI prints (``error:
    {message}``) plus the structured context fields of the most-derived
    registered class, a stable ``code``, the HTTP status a transport
    should use, and whether a retry could plausibly succeed.
    Non-:class:`ReproError` exceptions are wrapped as worker crashes so
    no raw traceback ever reaches the wire.
    """
    if not isinstance(error, ReproError):
        error = WorkerCrashError(
            f"worker crashed: {type(error).__name__}: {error}",
            original_type=type(error).__name__,
        )
    code, status, retryable = ERROR_CODES["ReproError"]
    for klass in type(error).__mro__:
        entry = ERROR_CODES.get(klass.__name__)
        if entry is not None:
            code, status, retryable = entry
            break
    context = {}
    for klass in type(error).__mro__:
        for name in _CONTEXT_FIELDS.get(klass.__name__, ()):
            if name not in context and hasattr(error, name):
                context[name] = _jsonable(getattr(error, name))
    return {
        "code": code,
        "type": type(error).__name__,
        "message": str(error),
        "http_status": status,
        "retryable": retryable,
        "context": context,
    }
