"""Interprocedural effect summaries: per-routine call-site contracts.

Every optimization level below -O4 stops at the routine boundary: a
call (``BranchSite.link_reg``) is a full barrier, so the global passes
throw away every register fact, every available expression and every
memory-deadness fact at each call site.  This module computes, per
compiled routine, what the callee *actually* does -- registers
clobbered (net of the provably-restored callee-save set), memory read
and written (must-writes separated from may-writes), and condition-code
validity on return -- and rewrites the CFG's call-site effect records so
all seven dataflow solvers consume a per-call-site transfer function
instead of the blanket ``FLOW_CALL`` kill.

Soundness rules, in the order they bite:

* **Bottom-up over the call graph, cycles degrade.**  A routine's
  summary unions its callees' summaries, so summaries are computed in
  dependency order; any routine on a call cycle (direct recursion or
  mutual) keeps the conservative barrier -- degrade, never guess.
* **Linkage must be proven, not assumed.**  Register clobbers are only
  refined when :meth:`Encoder.match_linkage` structurally matches the
  routine's prologue and *every* return path's epilogue; otherwise the
  routine is a barrier.
* **Callee memory effects are may-facts at the call site** (they kill
  availability, generate no deadness), except the linkage's own
  caller-coordinate must-writes (save area, frame bookkeeping).
  Frame-relative callee locations keep base-register coordinates: the
  target's ``disjoint_base_pairs`` declaration plus the fixed frame
  stride make interval reasoning on the shared frame base physically
  sound (two distinct frames are at least one frame apart, and every
  displacement is smaller than that).
* **CC facts come from the dominating entry block only**: the entry
  block either sets the CC before reading it (then the caller's CC is
  dead across the call and the callee observes nothing) or the summary
  assumes the worst.

**Fact integrity.**  A solved :class:`SummarySet` carries the same seal
as every dataflow solution (:class:`repro.opt.dataflow.Sealed`): a
shallow copy of the summary map, exact because each
:class:`RoutineSummary` is a frozen value.  :func:`apply_summaries`
re-verifies it immediately before rewriting any call-site record and
raises a typed :class:`~repro.errors.DataflowError` on mismatch;
:func:`repro.pascal.compiler.compile_program` then recompiles at -O3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.codegen.emitter import (
    BranchSite, Instr, LabelMark, Mem, StmtMark,
)
from repro.core.effects import FLOW_CALL, InstrEffects, Loc
from repro.core.machine import Encoder, LinkageInfo
from repro.opt import dataflow as D
from repro.opt.cfg import Cfg, ItemEffects


@dataclass(frozen=True)
class RoutineSummary:
    """One routine's observable effects, as seen from a call site.

    A ``barrier`` summary means "assume everything" -- the reason says
    why (recursion, unmatched linkage, an unanalyzable item).  For
    non-barrier summaries, ``clobbers`` excludes the linkage-preserved
    registers, ``writes`` are may-writes, and ``must_writes`` the
    caller-coordinate locations written on every path through the call.
    """

    label: int
    barrier: bool = False
    reason: str = ""
    clobbers: FrozenSet[int] = frozenset()
    preserved: FrozenSet[int] = frozenset()
    uses: FrozenSet[int] = frozenset()
    reads: Tuple[Loc, ...] = ()
    writes: Tuple[Loc, ...] = ()
    must_writes: Tuple[Loc, ...] = ()
    sets_cc: bool = False
    reads_cc: bool = True
    calls: Tuple[int, ...] = ()


@dataclass
class SummarySet(D.Sealed):
    """All routine summaries of one program, with an integrity seal."""

    name = "summaries"

    summaries: Dict[int, RoutineSummary] = field(default_factory=dict)

    def fact_maps(self) -> Tuple[Dict[int, RoutineSummary], ...]:
        return (self.summaries,)

    @property
    def refined(self) -> int:
        return sum(1 for s in self.summaries.values() if not s.barrier)

    @property
    def barriers(self) -> int:
        return sum(1 for s in self.summaries.values() if s.barrier)


def _effective_items(cfg: Cfg, block) -> List[Tuple[int, object]]:
    """(index, item) pairs of one block, marks and tombstones skipped."""
    out = []
    for i, item in cfg.block_items(block):
        if isinstance(item, (LabelMark, StmtMark)):
            continue
        out.append((i, item))
    return out


def _routine_blocks(cfg: Cfg, entry_bid: int) -> FrozenSet[int]:
    """Forward reachability from the routine's entry block.  Return
    blocks have no local successors, so the walk stays inside the
    routine (plus anything it falls through or branches into, which is
    then -- correctly -- part of its effect footprint)."""
    seen: Set[int] = set()
    stack = [entry_bid]
    while stack:
        bid = stack.pop()
        if bid in seen:
            continue
        seen.add(bid)
        stack.extend(cfg.blocks[bid].succs)
    return frozenset(seen)


def _addr_uses(item: Instr) -> FrozenSet[int]:
    """Address-formation registers of an instruction's Mem operands --
    the only real *value* uses of callee-save STM/LM traffic."""
    regs: Set[int] = set()
    for operand in item.operands:
        if isinstance(operand, Mem):
            if operand.base:
                regs.add(operand.base)
            if operand.index:
                regs.add(operand.index)
    return frozenset(regs)


def _entry_cc(entry_effects: List[ItemEffects]) -> Tuple[bool, bool]:
    """``(reads_cc, sets_cc)`` of the whole routine, proven from its
    dominating entry block: if the entry block sets the CC before any
    read, no path can observe the caller's CC (every path runs the
    entry block first) and the CC returns redefined.  May-executed
    (skip-span) items can read but never prove a set."""
    for eff in entry_effects:
        e = eff.effects
        if e.barrier or e.reads_cc:
            return True, False
        if e.sets_cc and not eff.may:
            return False, True
    return True, False


def _barrier(label: int, reason: str, calls: Tuple[int, ...] = ()
             ) -> RoutineSummary:
    return RoutineSummary(label=label, barrier=True, reason=reason,
                          calls=calls)


def _summarize(
    cfg: Cfg,
    encoder: Encoder,
    label: int,
    blocks: FrozenSet[int],
    calls: Tuple[int, ...],
    done: Dict[int, RoutineSummary],
) -> RoutineSummary:
    """Union the effects of one routine whose callees are summarized."""
    entry_bid = cfg.label_block[label]
    entry = _effective_items(cfg, cfg.blocks[entry_bid])
    return_tails: List[List[object]] = []
    for bid in sorted(blocks):
        block = cfg.blocks[bid]
        if block.exits and not block.halts:
            return_tails.append(
                [item for _, item in _effective_items(cfg, block)]
            )

    linkage: Optional[LinkageInfo] = encoder.match_linkage(
        [item for _, item in entry], return_tails
    )
    if linkage is None:
        return _barrier(label, "no provable standard linkage", calls)

    clobbers: Set[int] = set()
    uses: Set[int] = set()
    reads: Set[Loc] = set()
    writes: Set[Loc] = set()
    for bid in blocks:
        block = cfg.blocks[bid]
        # Per-block upward exposure: a register the block definitely
        # defines before using carries no caller value.  Cross-block
        # paths stay flow-insensitive (union), which only over-uses.
        defined: Set[int] = set()
        for i, item in cfg.block_items(block):
            eff = cfg.item_effects[i]
            e = eff.effects
            if isinstance(item, BranchSite) and item.link_reg is not None:
                callee = done.get(item.label)
                if callee is None or callee.barrier:
                    return _barrier(
                        label, f"calls unsummarized routine L{item.label}",
                        calls,
                    )
                clobbers |= callee.clobbers | {item.link_reg}
                if item.index_reg:
                    clobbers.add(item.index_reg)
                uses |= (callee.uses - {item.link_reg}) - defined
                if not eff.may:
                    defined.add(item.link_reg)
                reads.update(callee.reads)
                # A nested call's must-writes are in *its* caller's
                # frame coordinates -- this routine's own frame -- so
                # they demote to may-writes one level up.
                writes.update(callee.writes)
                writes.update(callee.must_writes)
                continue
            if e.barrier:
                return _barrier(
                    label, "contains an unanalyzable (barrier) item",
                    calls,
                )
            clobbers |= e.defs | e.may_defs
            if e.save_restore and isinstance(item, Instr):
                # STM/LM register-range "uses" are the caller's values
                # passing through, not values the routine consumes.
                uses |= _addr_uses(item) - defined
            else:
                uses |= e.uses - defined
            if not eff.may:
                defined |= e.defs
            reads.update(e.reads)
            writes.update(e.writes)
            writes.update(e.may_writes)

    reads_cc, sets_cc = _entry_cc(
        [cfg.item_effects[i] for i, _ in entry]
    )
    return RoutineSummary(
        label=label,
        clobbers=frozenset(clobbers - linkage.preserved),
        preserved=frozenset(linkage.preserved),
        uses=frozenset(uses),
        reads=tuple(sorted(reads, key=repr)),
        writes=tuple(sorted(writes, key=repr)),
        must_writes=tuple(linkage.must_writes),
        sets_cc=sets_cc,
        reads_cc=reads_cc,
        calls=calls,
    )


def compute_summaries(cfg: Cfg, encoder: Optional[Encoder]) -> SummarySet:
    """Summarize every called routine of one program, bottom-up.

    Routines are the targets of ``BranchSite.link_reg`` calls; the
    pseudo call graph among them is processed callees-first, and any
    routine left over after the ready-loop converges sits on a call
    cycle and keeps the conservative barrier.
    """
    result = SummarySet()
    if not cfg.ok or encoder is None:
        return result.seal()

    targets: Set[int] = set()
    for item in cfg.buffer.items:
        if isinstance(item, BranchSite) and item.link_reg is not None:
            targets.add(item.label)

    blocks_of: Dict[int, FrozenSet[int]] = {}
    calls_of: Dict[int, Tuple[int, ...]] = {}
    for label in sorted(targets):
        entry_bid = cfg.label_block.get(label)
        if entry_bid is None:
            result.summaries[label] = _barrier(label, "undefined label")
            continue
        blocks = _routine_blocks(cfg, entry_bid)
        blocks_of[label] = blocks
        callees: Set[int] = set()
        for bid in blocks:
            for _, item in cfg.block_items(cfg.blocks[bid]):
                if isinstance(item, BranchSite) \
                        and item.link_reg is not None:
                    callees.add(item.label)
        calls_of[label] = tuple(sorted(callees))

    remaining = set(blocks_of)
    progress = True
    while progress:
        progress = False
        for label in sorted(remaining):
            callees = calls_of[label]
            if label in callees:
                continue  # direct recursion: never becomes ready
            if any(c in remaining for c in callees):
                continue
            result.summaries[label] = _summarize(
                cfg, encoder, label, blocks_of[label], callees,
                result.summaries,
            )
            remaining.discard(label)
            progress = True
    for label in sorted(remaining):
        result.summaries[label] = _barrier(
            label, "on a call cycle (recursion)", calls_of[label]
        )
    return result.seal()


def call_site_effects(
    site: BranchSite, summary: RoutineSummary
) -> Optional[InstrEffects]:
    """The per-call-site transfer record one summary justifies, or
    ``None`` when only the barrier is sound."""
    if summary.barrier:
        return None
    link = site.link_reg
    scratch = (
        frozenset({site.index_reg}) if site.index_reg else frozenset()
    )
    return InstrEffects(
        uses=summary.uses - {link},
        defs=frozenset({link}),
        may_defs=(summary.clobbers - {link}) | scratch,
        reads=summary.reads,
        writes=summary.must_writes,
        may_writes=summary.writes,
        sets_cc=summary.sets_cc,
        reads_cc=summary.reads_cc,
        flow=FLOW_CALL,
    )


def apply_summaries(cfg: Cfg, summary_set: SummarySet) -> int:
    """Rewrite refined call-site records into ``cfg.item_effects``.

    Verifies the seal first (raising :class:`DataflowError` on any
    mismatch) so a corrupted summary can cost optimization, never
    correctness.  Returns the number of call sites refined; sites whose
    callee kept a barrier summary are left untouched.
    """
    summary_set.verify()
    applied = 0
    for i, item in enumerate(cfg.buffer.items):
        if not isinstance(item, BranchSite) or item.link_reg is None:
            continue
        summary = summary_set.summaries.get(item.label)
        if summary is None:
            continue
        effects = call_site_effects(item, summary)
        if effects is None:
            continue
        cfg.item_effects[i] = ItemEffects(effects)
        applied += 1
    return applied


def refine_call_sites(cfg: Cfg, encoder: Optional[Encoder]
                      ) -> Tuple[int, int]:
    """Compute the program's summaries over ``cfg`` and apply them: the
    -O4 step the global passes and the spill planner share.  ``cfg``
    should be built with the encoder's ``disjoint_base_pairs``.  Returns
    ``(refined routines, refined call sites)``."""
    summary_set = compute_summaries(cfg, encoder)
    return summary_set.refined, apply_summaries(cfg, summary_set)


def _render_locs(locs: Tuple[Loc, ...]) -> str:
    parts = []
    for loc in locs:
        if loc is None:
            parts.append("*")
        else:
            base, index, disp, width = loc
            idx = f"+x{index}" if index else ""
            parts.append(f"{disp}(,{base}){idx}/{width or '?'}")
    return " ".join(parts) or "-"


def render_summaries(summary_set: SummarySet) -> str:
    """Human-readable dump for ``compile --dump-summaries``."""
    lines = []
    for label in sorted(summary_set.summaries):
        s = summary_set.summaries[label]
        lines.append(f"routine L{label}:")
        if s.barrier:
            lines.append(f"  barrier: {s.reason}")
        else:
            regs = ",".join(f"r{n}" for n in sorted(s.clobbers)) or "-"
            kept = ",".join(f"r{n}" for n in sorted(s.preserved)) or "-"
            used = ",".join(f"r{n}" for n in sorted(s.uses)) or "-"
            lines.append(f"  clobbers:    {regs}")
            lines.append(f"  preserves:   {kept}")
            lines.append(f"  uses:        {used}")
            lines.append(f"  reads:       {_render_locs(s.reads)}")
            lines.append(f"  may-writes:  {_render_locs(s.writes)}")
            lines.append(f"  must-writes: {_render_locs(s.must_writes)}")
            cc = ("sets" if s.sets_cc else "leaves") + "/" + \
                 ("reads" if s.reads_cc else "ignores")
            lines.append(f"  cc:          {cc}")
        if s.calls:
            called = ",".join(f"L{c}" for c in s.calls)
            lines.append(f"  calls:       {called}")
    if not lines:
        lines.append("(no called routines)")
    return "\n".join(lines) + "\n"
