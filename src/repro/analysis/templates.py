"""Template/ISA consistency (``SL030``-``SL035``).

A template that can never encode is an error the assembler currently
reports as a crash at *compile* time -- possibly long after the spec
shipped.  This pass re-checks every instruction template against the
target binding at lint time:

* the mnemonic must be encodable by the target's encoder (``SL030``);
* the operand count must be possible for the mnemonic's format, using
  the encoder's own arity table (``SL031``);
* an index register may only sit on an operand whose format has an
  index slot, per the encoder (``SL035``): RS, SI and SS addresses
  have none, and the assembler rejects one there;
* named constants must resolve to a value, in the spec's ``$Constants``
  section or the machine description's runtime conventions (``SL032``);
* every register-class reference -- template operands, ``using``/``need``
  requests, and the specific register a ``need`` reserves -- must exist
  in the machine description (``SL033``);
* every semantic operator must have a runtime handler, standard or
  target-registered (``SL034``) -- the type checker only verifies the
  *signature* exists, not that the code emission routine can act on it.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.grammar import SDTS, Production
from repro.core.machine import MachineDescription, template_constants
from repro.core.speclang.ast import (
    Name,
    Number,
    OperandAST,
    Ref,
    SymKind,
    TemplateAST,
)
from repro.analysis.diag import Diagnostic

#: Semantic operators the skeletal parser handles inline (register
#: allocation happens before templates run; see parser_rt).
_ALLOCATION_OPS = ("using", "need")


def _known_handlers(machine: MachineDescription) -> set:
    from repro.core.codegen.semantic_ops import STANDARD_HANDLERS

    handlers = set(STANDARD_HANDLERS)
    handlers.update(machine.semop_handlers)
    handlers.update(_ALLOCATION_OPS)
    return handlers


def _check_operand_parts(
    out: List[Diagnostic],
    sdts: SDTS,
    machine: MachineDescription,
    constants: Dict[str, int],
    prod: Production,
    tmpl: TemplateAST,
    operand: OperandAST,
) -> None:
    for primary in operand.parts():
        if isinstance(primary, Name):
            if primary.name not in constants:
                out.append(
                    Diagnostic(
                        code="SL032",
                        severity="error",
                        message=(
                            f"in `{prod}`: template `{tmpl}` uses constant "
                            f"{primary.name!r} which has no value in the "
                            f"spec or in machine {machine.name!r} (the "
                            f"code emission routine would stop here)"
                        ),
                        line=tmpl.line,
                        data={
                            "pid": prod.pid,
                            "template": str(tmpl),
                            "constant": primary.name,
                        },
                    )
                )
        elif isinstance(primary, Ref):
            if (
                sdts.symtab.kind_of(primary.name) is SymKind.NONTERMINAL
                and primary.name not in machine.classes
            ):
                out.append(
                    Diagnostic(
                        code="SL033",
                        severity="error",
                        message=(
                            f"in `{prod}`: template `{tmpl}` references "
                            f"{primary}, but non-terminal {primary.name!r} "
                            f"is not a register class of machine "
                            f"{machine.name!r}"
                        ),
                        line=tmpl.line,
                        data={
                            "pid": prod.pid,
                            "template": str(tmpl),
                            "nonterminal": primary.name,
                        },
                    )
                )


def _check_opcode_template(
    out: List[Diagnostic],
    sdts: SDTS,
    machine: MachineDescription,
    constants: Dict[str, int],
    prod: Production,
    tmpl: TemplateAST,
) -> None:
    encoder = machine.encoder
    if encoder is not None:
        known = encoder.mnemonics()
        if known is not None and tmpl.op not in known:
            out.append(
                Diagnostic(
                    code="SL030",
                    severity="error",
                    message=(
                        f"in `{prod}`: template opcode {tmpl.op!r} is not "
                        f"encodable on target {machine.name!r} (the "
                        f"assembler would crash on every use)"
                    ),
                    line=tmpl.line,
                    data={
                        "pid": prod.pid,
                        "template": str(tmpl),
                        "opcode": tmpl.op,
                    },
                )
            )
            return
        arity = encoder.operand_arity(tmpl.op)
        if arity is not None:
            low, high = arity
            if not low <= len(tmpl.operands) <= high:
                want = str(low) if low == high else f"{low}..{high}"
                out.append(
                    Diagnostic(
                        code="SL031",
                        severity="error",
                        message=(
                            f"in `{prod}`: template `{tmpl}` gives "
                            f"{tmpl.op!r} {len(tmpl.operands)} operand(s); "
                            f"its encoding on {machine.name!r} takes "
                            f"{want}"
                        ),
                        line=tmpl.line,
                        data={
                            "pid": prod.pid,
                            "template": str(tmpl),
                            "opcode": tmpl.op,
                            "got": len(tmpl.operands),
                            "min": low,
                            "max": high,
                        },
                    )
                )
        _check_index_slots(out, machine, constants, prod, tmpl)
    for operand in tmpl.operands:
        _check_operand_parts(
            out, sdts, machine, constants, prod, tmpl, operand
        )


def _check_index_slots(
    out: List[Diagnostic],
    machine: MachineDescription,
    constants: Dict[str, int],
    prod: Production,
    tmpl: TemplateAST,
) -> None:
    """SL035: a ``d(x,b)`` operand whose ``x`` is not the constant 0, at
    a position the encoder gives no index slot."""
    indexed = machine.encoder.indexed_operands(tmpl.op)
    if indexed is None:
        return
    for pos, operand in enumerate(tmpl.operands):
        if operand.base_reg is None or pos in indexed:
            continue
        index = operand.index
        if isinstance(index, Number) and index.value == 0:
            continue
        if isinstance(index, Name) and constants.get(index.name) == 0:
            continue
        out.append(
            Diagnostic(
                code="SL035",
                severity="error",
                message=(
                    f"in `{prod}`: template `{tmpl}` puts index {index} "
                    f"on operand {pos + 1} of {tmpl.op!r}, whose encoding "
                    f"on {machine.name!r} has no index slot (the "
                    f"assembler rejects it)"
                ),
                line=tmpl.line,
                data={
                    "pid": prod.pid,
                    "template": str(tmpl),
                    "opcode": tmpl.op,
                    "operand": pos + 1,
                },
            )
        )


def _check_semop_template(
    out: List[Diagnostic],
    sdts: SDTS,
    machine: MachineDescription,
    constants: Dict[str, int],
    handlers: set,
    prod: Production,
    tmpl: TemplateAST,
) -> None:
    if tmpl.op not in handlers:
        out.append(
            Diagnostic(
                code="SL034",
                severity="error",
                message=(
                    f"in `{prod}`: semantic operator {tmpl.op!r} has no "
                    f"runtime handler (standard or registered by machine "
                    f"{machine.name!r}); every reduction through this "
                    f"production would fail"
                ),
                line=tmpl.line,
                data={
                    "pid": prod.pid,
                    "template": str(tmpl),
                    "operator": tmpl.op,
                },
            )
        )
        return
    if tmpl.op in _ALLOCATION_OPS:
        for operand in tmpl.operands:
            ref = operand.base
            if not isinstance(ref, Ref):
                continue  # the type checker already rejected this
            cls = machine.classes.get(ref.name)
            if cls is None:
                out.append(
                    Diagnostic(
                        code="SL033",
                        severity="error",
                        message=(
                            f"in `{prod}`: `{tmpl}` requests a register "
                            f"of class {ref.name!r}, which machine "
                            f"{machine.name!r} does not define"
                        ),
                        line=tmpl.line,
                        data={
                            "pid": prod.pid,
                            "template": str(tmpl),
                            "nonterminal": ref.name,
                        },
                    )
                )
            elif tmpl.op == "need" and ref.index not in cls.members:
                out.append(
                    Diagnostic(
                        code="SL033",
                        severity="error",
                        message=(
                            f"in `{prod}`: `{tmpl}` reserves register "
                            f"{ref.index} of class {ref.name!r}, but the "
                            f"class members on {machine.name!r} are "
                            f"{sorted(cls.members)}"
                        ),
                        line=tmpl.line,
                        data={
                            "pid": prod.pid,
                            "template": str(tmpl),
                            "nonterminal": ref.name,
                            "register": ref.index,
                        },
                    )
                )
    else:
        for operand in tmpl.operands:
            _check_operand_parts(
                out, sdts, machine, constants, prod, tmpl, operand
            )


def check_templates(
    sdts: SDTS, machine: MachineDescription
) -> List[Diagnostic]:
    """SL030-SL035 over every template of every user production."""
    out: List[Diagnostic] = []
    handlers = _known_handlers(machine)
    constants = template_constants(sdts, machine)
    opcode_names = {
        s.name for s in sdts.symtab if s.kind is SymKind.OPCODE
    }
    for prod in sdts.user_productions:
        for tmpl in prod.templates:
            if tmpl.op in opcode_names:
                _check_opcode_template(
                    out, sdts, machine, constants, prod, tmpl
                )
            else:
                _check_semop_template(
                    out, sdts, machine, constants, handlers, prod, tmpl
                )
    return out
