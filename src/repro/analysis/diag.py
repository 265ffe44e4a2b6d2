"""Structured lint diagnostics: codes, severities, reports, JSON.

Every speclint finding is a :class:`Diagnostic` with a stable code
(``SL001``, ``SL010``...), a severity, a human message, an optional
source line, and a machine-readable ``data`` mapping.  A whole run is a
:class:`LintReport`, renderable as text for spec authors or as JSON
(schema below) for external tooling.

JSON schema (version 1)::

    {
      "version": 1,
      "spec": "<spec name or path>",
      "target": "<machine description name>",
      "summary": {"error": N, "warning": N, "info": N},
      "diagnostics": [
        {
          "code": "SL001",
          "severity": "error" | "warning" | "info",
          "message": "<human text>",
          "line": <int, 0 = no source location>,
          "data": {<pass-specific structured fields>}
        },
        ...
      ]
    }

The ``data`` mapping only ever holds JSON-native values (strings,
numbers, booleans, lists of those), so ``to_json``/``from_json`` round
trip exactly; :func:`LintReport.from_json` is the contract external
consumers can rely on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: Ascending severity order (index = rank).
SEVERITIES = ("info", "warning", "error")

#: JSON schema version emitted by :meth:`LintReport.to_json`.
JSON_VERSION = 1

#: Every diagnostic code speclint can emit, with its one-line meaning.
#: (docs/ARCHITECTURE.md carries the spec-author-facing expansion.)
CODES: Dict[str, str] = {
    "SL000": "specification failed to build (parse/type/table error)",
    "SL001": "conflict resolution can block the parser on viable input",
    "SL010": "chain-rule reduction cycle (runtime: ChainLoopError)",
    "SL020": "production is never reduced in any table entry",
    "SL021": "production is totally shadowed by conflict resolution",
    "SL022": "non-terminal has no productions and no register class",
    "SL023": "declared symbol is never used",
    "SL024": "non-terminal unreachable: no RHS use and no register class",
    "SL030": "template opcode is unknown to the target encoder",
    "SL031": "template operand count impossible for the opcode's format",
    "SL032": "constant operand has no value in the spec or machine",
    "SL033": "register class unknown to the machine description",
    "SL034": "semantic operator has no runtime handler",
    "SL035": "template puts an index register where the format has none",
    "SL040": "template the peephole always rewrites, or a self-move",
    "SL050": "generated code uses a register no definition reaches",
    "SL051": "generated store is provably never read on any path",
    "SL052": "generated basic block is unreachable from every root",
    "SL053": "encoder mnemonic has no effects-table entry",
}


def severity_rank(severity: str) -> int:
    """Rank for ordering/thresholds; unknown severities sort lowest."""
    try:
        return SEVERITIES.index(severity)
    except ValueError:
        return -1


@dataclass
class Diagnostic:
    """One speclint finding."""

    code: str
    severity: str
    message: str
    line: int = 0
    data: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.code not in CODES:
            raise ValueError(f"unknown diagnostic code {self.code!r}")
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    def render(self) -> str:
        where = f" (line {self.line})" if self.line else ""
        return f"{self.severity:7s} {self.code}{where}: {self.message}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "line": self.line,
            "data": dict(self.data),
        }

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "Diagnostic":
        return cls(
            code=raw["code"],
            severity=raw["severity"],
            message=raw["message"],
            line=int(raw.get("line", 0)),
            data=dict(raw.get("data", {})),
        )


@dataclass
class LintReport:
    """All diagnostics from one speclint run over one specification."""

    spec_name: str
    target: str
    diagnostics: List[Diagnostic] = field(default_factory=list)

    def extend(self, found: List[Diagnostic]) -> None:
        self.diagnostics.extend(found)

    def sort(self) -> None:
        """Canonical order: severity (worst first), then code, then line."""
        self.diagnostics.sort(
            key=lambda d: (-severity_rank(d.severity), d.code, d.line,
                           d.message)
        )

    def counts(self) -> Dict[str, int]:
        out = {s: 0 for s in SEVERITIES}
        for diag in self.diagnostics:
            out[diag.severity] += 1
        return out

    def worst(self) -> Optional[str]:
        """The highest severity present, or None for a clean report."""
        best = None
        for diag in self.diagnostics:
            if best is None or severity_rank(diag.severity) > severity_rank(best):
                best = diag.severity
        return best

    def at_least(self, severity: str) -> List[Diagnostic]:
        """Diagnostics at or above a severity threshold."""
        floor = severity_rank(severity)
        return [
            d for d in self.diagnostics if severity_rank(d.severity) >= floor
        ]

    def codes(self) -> List[str]:
        return sorted({d.code for d in self.diagnostics})

    # ---- rendering -----------------------------------------------------------

    def render(self) -> str:
        counts = self.counts()
        lines = [
            f"speclint: {self.spec_name} (target {self.target}) -- "
            f"{counts['error']} error(s), {counts['warning']} warning(s), "
            f"{counts['info']} info"
        ]
        for diag in self.diagnostics:
            lines.append(diag.render())
        if not self.diagnostics:
            lines.append("clean: no diagnostics")
        return "\n".join(lines)

    # ---- JSON ----------------------------------------------------------------

    def to_json(self, indent: Optional[int] = None) -> str:
        payload = {
            "version": JSON_VERSION,
            "spec": self.spec_name,
            "target": self.target,
            "summary": self.counts(),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }
        return json.dumps(payload, indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "LintReport":
        payload = json.loads(text)
        version = payload.get("version")
        if version != JSON_VERSION:
            raise ValueError(
                f"unsupported speclint JSON version {version!r} "
                f"(expected {JSON_VERSION})"
            )
        return cls(
            spec_name=payload["spec"],
            target=payload["target"],
            diagnostics=[
                Diagnostic.from_dict(raw) for raw in payload["diagnostics"]
            ],
        )
