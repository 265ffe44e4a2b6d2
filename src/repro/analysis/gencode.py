"""Generated-code sanitizer: dataflow lints over the symbolic buffer.

The speclint passes diagnose the *tables*; this pass diagnoses what the
tables actually emitted.  It runs the CFG + dataflow framework
(:mod:`repro.opt.cfg`, :mod:`repro.opt.dataflow`) over one compiled
program's post-selection item stream and reports anomalies that are
invisible to the -O1 peephole and to spec-level analysis, each traced
back to the originating spec template through the code buffer's
provenance tags (``CodeBuffer.origins``).

====== ============================================================
code   meaning
====== ============================================================
SL050  a register is used that no definition reaches (error)
SL051  a store to a stack/data slot is provably never read (warning)
SL052  unreachable basic block carrying real instructions (warning)
SL053  encoder mnemonic with no effects-table entry (info)
====== ============================================================

SL050 is the load-bearing one: on a shipped spec it must never fire
(the CI gate runs every bench workload at -O0/-O1/-O2 with
``--fail-on error``), and when a spec edit breaks register discipline
it points at the spec line that emitted the bad use.  Callee-save
traffic (``save_restore`` effects) is exempt by design: STM's
register-range "uses" are the caller's values.

When the CFG builder rejects the stream (``ok=False``) the dataflow
lints report nothing rather than guessing; only the machine-level
coverage check (SL053) still runs.
"""

from __future__ import annotations

import re
from typing import List, Optional

from repro.analysis.diag import Diagnostic, LintReport

_ORIGIN_LINE = re.compile(r"spec line (\d+)")


def _origin_of(buffer, index: int) -> str:
    return buffer.origins.get(index, "")


def _origin_line(tag: str) -> int:
    match = _ORIGIN_LINE.match(tag)
    return int(match.group(1)) if match else 0


def _render(item) -> str:
    from repro.core.codegen.parser_rt import _render_item

    return _render_item(item).strip()


def _coverage_gaps(encoder) -> List[Diagnostic]:
    """SL053: mnemonics the encoder accepts but has no effects for."""
    if encoder is None:
        return []
    mnemonics = encoder.mnemonics()
    covered = encoder.effect_coverage()
    if mnemonics is None or covered is None:
        return []
    return [
        Diagnostic(
            code="SL053",
            severity="info",
            message=(
                f"mnemonic {op!r} has no effects-table entry: "
                "every analysis treats it as a full barrier"
            ),
            data={"mnemonic": op},
        )
        for op in sorted(mnemonics - covered)
    ]


def sanitize_generated(
    generated, encoder, nregs: int = 16
) -> List[Diagnostic]:
    """All sanitizer findings for one generated program."""
    from repro.core.codegen.emitter import BranchSite, Instr
    from repro.opt.cfg import build_cfg
    from repro.opt.dataflow import (
        def_use_chains,
        memory_deadness,
        reaching_defs,
        walk_mem_dead,
    )

    diags = _coverage_gaps(encoder)
    buffer = generated.buffer
    cfg = build_cfg(buffer, encoder)
    if not cfg.ok:
        return diags

    def place(index: int) -> dict:
        origin = _origin_of(buffer, index)
        data = {"index": index}
        if origin:
            data["origin"] = origin
        return data

    # ---- SL050: uses no definition reaches -------------------------------
    entry = (
        encoder.entry_defined_registers()
        if encoder is not None
        else frozenset()
    )
    reaching = reaching_defs(cfg, nregs=nregs, entry_defined=entry)
    chains = def_use_chains(cfg, reaching)
    for (index, reg), sites in sorted(chains.defs_of_use.items()):
        if sites:
            continue
        if cfg.item_effects[index].effects.save_restore:
            continue  # LM/STM ranges carry the caller's values
        origin = _origin_of(buffer, index)
        diags.append(
            Diagnostic(
                code="SL050",
                severity="error",
                message=(
                    f"r{reg} is used by `{_render(buffer.items[index])}` "
                    "but no definition reaches it"
                    + (f" [{origin}]" if origin else "")
                ),
                line=_origin_line(origin),
                data={"reg": reg, **place(index)},
            )
        )

    # ---- SL051: stores provably never read -------------------------------
    deadness = memory_deadness(cfg)
    for block in cfg.blocks:
        if block.bid not in cfg.reachable:
            continue
        for index, item, dead_after in walk_mem_dead(cfg, result=deadness,
                                                     block=block):
            if not isinstance(item, Instr) or index in cfg.skip_spans:
                continue
            eff = cfg.item_effects[index].effects
            if (
                eff.defs
                or eff.barrier
                or eff.flow
                or len(eff.writes) != 1
                or eff.writes[0] is None
            ):
                continue
            loc = eff.writes[0]
            if loc[1] != 0 or loc[3] is None:
                continue  # indexed or unknown-width: not provable
            if dead_after is None \
                    or dead_after & deadness.solution.problem.known(loc):
                origin = _origin_of(buffer, index)
                diags.append(
                    Diagnostic(
                        code="SL051",
                        severity="warning",
                        message=(
                            f"store `{_render(item)}` is never read on "
                            "any path"
                            + (f" [{origin}]" if origin else "")
                        ),
                        line=_origin_line(origin),
                        data=place(index),
                    )
                )

    # ---- SL052: unreachable blocks with real instructions ----------------
    for block in cfg.blocks:
        if block.bid in cfg.reachable:
            continue
        real = [
            index
            for index, item in cfg.block_items(block)
            if isinstance(item, (Instr, BranchSite))
        ]
        if not real:
            continue
        origin = _origin_of(buffer, real[0])
        diags.append(
            Diagnostic(
                code="SL052",
                severity="warning",
                message=(
                    f"basic block B{block.bid} "
                    f"({len(real)} instruction(s)) is unreachable from "
                    "every entry, call target and branch table"
                    + (f" [{origin}]" if origin else "")
                ),
                line=_origin_line(origin),
                data={"block": block.bid, "instructions": len(real),
                      **place(real[0])},
            )
        )

    return diags


def run_gencode_lint(
    generated,
    encoder,
    nregs: int = 16,
    program_name: str = "<program>",
    target: str = "",
) -> LintReport:
    """Sanitize one generated program into a :class:`LintReport`."""
    report = LintReport(spec_name=program_name, target=target)
    report.extend(sanitize_generated(generated, encoder, nregs=nregs))
    report.sort()
    return report
