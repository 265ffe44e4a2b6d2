"""Peephole-foreseeable templates (``SL040``).

The post-selection peephole pass (:mod:`repro.opt.peephole`) exists to
clean the seams *between* reductions; a template sequence the peephole
would rewrite on **every** use is a different situation -- the spec
itself emits code it could have written better, and the production
should express the improved sequence directly (the paper's section 5
position: idioms belong in the grammar when the grammar can see them).

This pass flags, per production, template sequences every -O1 compile
rewrites unconditionally, plus one it never repairs:

* ``LR x,x`` -- a self-move; no optimizer pass removes it, so it costs
  an instruction at every opt level;
* ``ST r,m`` directly followed by ``L r',m`` (textually identical
  storage operand) -- the ``store_load`` rule forwards through the
  stored register and deletes the load;
* ``L r,m`` directly followed by ``L r',m`` -- the ``load_load`` rule
  turns the second into a register move or deletes it.

"Directly followed" skips the pure-allocation semantic operators
(``using``/``need``): they emit no code, so the emitted instructions
are still adjacent.  Any other intervening template (a ``skip``, a
semantic operator that emits) resets the window, because the peephole
itself would then see intervening code and may not fire.

Severity is ``warning``: the generated code is correct either way (and
``-O1`` repairs the load idioms per compilation), but the spec is paying
a peephole pass -- or, for the self-move, a wasted instruction -- for
something a better template would get for free.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.grammar import SDTS, Production
from repro.core.speclang.ast import SymKind, TemplateAST
from repro.analysis.diag import Diagnostic

#: Semantic operators that emit no code (allocation happens before the
#: templates run), so instruction templates around them stay adjacent.
_SILENT_SEMOPS = ("using", "need", "modifies")


def _storage_operand(tmpl: TemplateAST) -> Optional[str]:
    """The textual storage operand of a 2-operand RX-style template."""
    if len(tmpl.operands) != 2:
        return None
    return str(tmpl.operands[1])


def _diag(
    prod: Production, tmpl: TemplateAST, rule: Optional[str], message: str
) -> Diagnostic:
    if rule is None:
        cost = ("no optimizer pass removes it, so it costs an instruction "
                "at every opt level; drop the template")
    else:
        cost = (f"peephole rule `{rule}` rewrites this on every -O1 "
                f"compile; fold the improvement into the template")
    return Diagnostic(
        code="SL040",
        severity="warning",
        message=f"in `{prod}`: {message} ({cost})",
        line=tmpl.line,
        data={
            "pid": prod.pid,
            "template": str(tmpl),
            "rule": rule,
        },
    )


def _check_production(
    out: List[Diagnostic], prod: Production, opcode_names: set
) -> None:
    previous: Optional[Tuple[str, TemplateAST, Optional[str]]] = None
    for tmpl in prod.templates:
        if tmpl.op not in opcode_names:
            if tmpl.op in _SILENT_SEMOPS:
                continue  # allocation only: emitted code stays adjacent
            previous = None
            continue
        if tmpl.op == "lr" and len(tmpl.operands) == 2 \
                and str(tmpl.operands[0]) == str(tmpl.operands[1]):
            out.append(
                _diag(
                    prod, tmpl, None,
                    f"template `{tmpl}` moves a register onto itself",
                )
            )
        storage = _storage_operand(tmpl)
        if tmpl.op == "l" and storage is not None and previous is not None:
            prev_op, prev_tmpl, prev_storage = previous
            if prev_storage == storage and prev_op == "st":
                out.append(
                    _diag(
                        prod, tmpl, "store_load",
                        f"template `{tmpl}` reloads {storage} "
                        f"immediately after `{prev_tmpl}` stored it",
                    )
                )
            elif prev_storage == storage and prev_op == "l":
                out.append(
                    _diag(
                        prod, tmpl, "load_load",
                        f"template `{tmpl}` repeats the load "
                        f"`{prev_tmpl}`",
                    )
                )
        previous = (tmpl.op, tmpl, storage)


def check_peephole_idioms(sdts: SDTS) -> List[Diagnostic]:
    """SL040 over every template sequence of every user production."""
    out: List[Diagnostic] = []
    opcode_names = {
        s.name for s in sdts.symtab if s.kind is SymKind.OPCODE
    }
    for prod in sdts.user_productions:
        _check_production(out, prod, opcode_names)
    return out
