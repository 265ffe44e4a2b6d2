"""speclint: static analysis over code-generator specifications.

The table constructor *resolves* the deliberate ambiguity of a
Graham-Glanville machine grammar instead of rejecting it, so a spec can
build cleanly and still misbehave at code-generation time -- blocking on
viable IF prefixes, spinning through chain-rule loops, carrying dead
templates, or naming instructions the target cannot encode.  PR 1 added
runtime watchdogs that catch these per compilation, on the serving path;
this package is their static counterpart, diagnosing the whole table
once, at build time.

Passes (see :mod:`repro.analysis.diag` for the code registry):

====== ========================================================= =======
code   meaning                                                   runtime
====== ========================================================= =======
SL000  spec failed to build (parse/type/table error)             n/a
SL001  conflict resolution can block the parser                  CodeGenBlockedError
SL010  chain-rule reduction cycle                                ChainLoopError
SL020  production never reduced in any table entry               (silent)
SL021  production totally shadowed by conflict resolution        (silent)
SL022  non-terminal with no productions, not a register class    CodeGenBlockedError
SL023  declared symbol never used                                (silent)
SL024  non-terminal unreachable from any parse                   (silent)
SL030  template opcode unknown to the target encoder             AssemblerError
SL031  template operand count impossible for the opcode          AssemblerError
SL032  template constant with no value anywhere                  EmitError
SL033  register class/member unknown to the machine              AllocationError
SL034  semantic operator without a runtime handler               EmitError
SL035  index register on an operand with no index slot           AssemblyError
SL040  template the peephole always rewrites, or a self-move     (silent)
SL050  generated code uses a register no definition reaches      (wrong code)
SL051  generated store provably never read on any path           (silent)
SL052  generated basic block unreachable from every root         (silent)
SL053  encoder mnemonic with no effects-table entry              (silent)
====== ========================================================= =======

SL050-SL053 come from :mod:`repro.analysis.gencode`, the *generated
code* sanitizer: unlike the table-level passes it runs the global
dataflow framework over one compiled program's symbolic buffer and
traces findings back to spec templates through provenance tags
(``lint SPEC --gencode SRC``).

Entry point: :func:`run_lint` over a finished
:class:`~repro.core.cogg.BuildResult`; the ``python -m repro lint``
subcommand wraps it for files and the built-in specs.

This package never imports ``repro.core.codegen`` (the runtime imports
:mod:`repro.analysis.expected`, and cycles must stay impossible).
"""

from __future__ import annotations

from repro.core.cogg import BuildResult
from repro.analysis.blocking import BlockTrace, check_blocking
from repro.analysis.chains import chain_productions, check_chain_loops
from repro.analysis.deadrules import check_dead_rules, reduced_pids
from repro.analysis.diag import (
    CODES,
    JSON_VERSION,
    SEVERITIES,
    Diagnostic,
    LintReport,
    severity_rank,
)
from repro.analysis.expected import (
    classify_expected,
    expected_in_state,
    render_expected,
)
from repro.analysis.gencode import run_gencode_lint, sanitize_generated
from repro.analysis.peepidioms import check_peephole_idioms
from repro.analysis.templates import check_templates

__all__ = [
    "BlockTrace",
    "CODES",
    "Diagnostic",
    "JSON_VERSION",
    "LintReport",
    "SEVERITIES",
    "chain_productions",
    "check_blocking",
    "check_chain_loops",
    "check_dead_rules",
    "check_peephole_idioms",
    "check_templates",
    "classify_expected",
    "expected_in_state",
    "reduced_pids",
    "render_expected",
    "run_gencode_lint",
    "run_lint",
    "sanitize_generated",
    "severity_rank",
]


def run_lint(
    build: BuildResult,
    spec_name: str = "<spec>",
    target: str = "",
) -> LintReport:
    """Run every speclint pass over a finished build.

    ``target`` is a display name for the report header; the machine
    binding itself comes from ``build.machine``.
    """
    machine = build.machine
    report = LintReport(
        spec_name=spec_name,
        target=target or (machine.name if machine is not None else ""),
    )
    report.extend(check_blocking(build))
    report.extend(check_chain_loops(build.sdts))
    report.extend(check_dead_rules(build, machine))
    report.extend(check_peephole_idioms(build.sdts))
    if machine is not None:
        report.extend(check_templates(build.sdts, machine))
    report.sort()
    return report
