"""A window-based peephole optimizer over symbolic S/370 code.

Runs between instruction selection and branch resolution, directly on
the :class:`~repro.core.codegen.emitter.CodeBuffer` item stream, so
labels, branch sites and relocation entries stay symbolic and the
loader record generator never knows the pass ran.

The rules are grounded in the paper's idiom discussion (section 5): the
grammar expresses what a production can see inside one reduction, the
peephole cleans the seams *between* reductions.  Every rule is
individually toggleable and its applications are counted, so the
code-quality benchmark can attribute wins per rule.

====================  ======================================================
rule                  rewrite
====================  ======================================================
``store_load``        ``ST r1,m ... L r2,m`` -> delete the load (forwarding
                      through ``r1``, rewriting ``r2`` uses when ``r2 != r1``)
``load_load``         ``L r1,m ; L r2,m`` -> ``LR r2,r1`` (delete if equal)
``zero_clear``        ``LA r,0`` -> ``SR r,r`` (2 bytes shorter; needs a
                      dead condition code, SR sets it)
``branch_chain``      branch to an unconditional branch -> branch to its
                      final target
``fallthrough_branch`` unconditional branch to the next location -> delete
====================  ======================================================

**Safety machinery.**  Liveness comes from the register allocator's
death facts (``CodeBuffer.deaths``), not from guessing: the LRU
allocator deliberately rotates registers, so a freed register is
usually *not* re-picked and same-register ``ST x; L x`` windows are
rare -- cross-register forwarding driven by ground-truth deaths is what
actually fires.  Items covered by a ``SkipSite`` span (the fixed
``2*halfwords``-byte windows of intra-template skips) are never deleted
or resized.  Unknown mnemonics, calls, supervisor calls and multi-
register moves are barriers; rewrites never cross a label, branch or
skip site.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right, insort
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import CodeGenError
from repro.core.codegen.emitter import (
    AConSite,
    BranchSite,
    CodeBuffer,
    DataBlock,
    Imm,
    Instr,
    LabelMark,
    Mem,
    R,
    SkipSite,
    StmtMark,
)
from repro.core.codegen.labels import LabelDictionary
from repro.core.effects import BARRIER_EFFECTS, InstrEffects, may_alias
from repro.machines.s370.effects import imm_reg_mention, instr_effects
from repro.machines.s370.isa import OPCODES

#: Every rule the engine knows, in application order.
ALL_RULES = (
    "store_load",
    "load_load",
    "zero_clear",
    "branch_chain",
    "fallthrough_branch",
)

_COND_ALWAYS = 15
#: Forward-scan window (real items) for multi-instruction patterns.
_WINDOW = 24
_MAX_PASSES = 8


# ---------------------------------------------------------------------------
# Per-instruction facts: the shared S/370 effect table
# (repro.machines.s370.effects), clamped back to this pass's stricter
# barrier discipline so -O1 rewrites stay strictly window-local.
# ---------------------------------------------------------------------------

_Facts = InstrEffects
_BARRIER = BARRIER_EFFECTS
_may_alias = may_alias
_imm_reg_mention = imm_reg_mention

#: Control transfers, supervisor services and multi-register moves: the
#: *window* pass assumes nothing about them even though the shared
#: table models them (the global -O2 pass uses the refined effects).
#: Unknown mnemonics join the club.
_BARRIER_OPS = frozenset(
    {"bc", "bcr", "bal", "balr", "bct", "svc", "stm", "lm", "mvcl", "ex"}
)
#: Mnemonics the shared table refines but no window rule targets; kept
#: opaque here so the -O1 output is bit-for-bit what it always was.
_WINDOW_OPAQUE = frozenset({"alr", "slr", "clcl"})


def _facts(instr: Instr) -> _Facts:
    """Conservative read/write/clobber facts for one instruction."""
    if instr.opcode in _BARRIER_OPS or instr.opcode in _WINDOW_OPAQUE:
        return _BARRIER
    effects = instr_effects(instr)
    if effects is None or effects.barrier or effects.flow:
        return _BARRIER
    return effects


def _label_positions(items) -> Dict[int, int]:
    """label -> index of its ``LabelMark``."""
    return {
        item.label: k
        for k, item in enumerate(items)
        if isinstance(item, LabelMark)
    }


def _rename_reg(instr: Instr, old: int, new: int) -> None:
    """Rewrite every R-operand and address-field use of ``old``."""
    rewritten = []
    for operand in instr.operands:
        if isinstance(operand, R) and operand.n == old:
            rewritten.append(R(new))
        elif isinstance(operand, Mem) and old in (operand.base,
                                                  operand.index):
            rewritten.append(
                Mem(
                    operand.disp,
                    new if operand.index == old else operand.index,
                    new if operand.base == old else operand.base,
                )
            )
        else:
            rewritten.append(operand)
    instr.operands = tuple(rewritten)


def _item_min_size(item) -> int:
    """Lower-bound byte size of one buffer item (skip-span accounting)."""
    if item is None or isinstance(item, (LabelMark, StmtMark)):
        return 0
    if isinstance(item, Instr):
        info = OPCODES.get(item.opcode)
        return info.length if info is not None else 4
    if isinstance(item, (BranchSite, SkipSite, AConSite)):
        return 4
    return len(item.data)  # DataBlock


def _is_flow(item) -> bool:
    return isinstance(
        item, (LabelMark, BranchSite, SkipSite, AConSite, DataBlock)
    )


def _render(item) -> str:
    from repro.core.codegen.parser_rt import _render_item

    return _render_item(item).strip()


# ---------------------------------------------------------------------------
# Death facts: (d, r) means no item at index >= d reads r until r is next
# defined.
# ---------------------------------------------------------------------------

_LAST_SLOT = sys.maxsize


class _DeathIndex:
    """``CodeBuffer.deaths`` indexed per register, for one run.

    Each register maps to its ``(index, slot)`` entries in sorted order,
    ``slot`` being the entry's position in the original list, so every
    query is a bisect.  :meth:`to_list` writes back exactly what editing
    the list in place would leave: removed entries dropped, moved
    entries renamed where they stood, order otherwise unchanged.
    """

    def __init__(self, deaths: Sequence[Tuple[int, int]]):
        self.indices = [d for d, _ in deaths]
        self.regs: List[Optional[int]] = [r for _, r in deaths]
        self.by_reg: Dict[int, List[Tuple[int, int]]] = {}
        for slot, (d, r) in enumerate(deaths):
            self.by_reg.setdefault(r, []).append((d, slot))
        for entries in self.by_reg.values():
            entries.sort()

    def first_after(self, reg: int, idx: int) -> Optional[int]:
        """The smallest death index of ``reg`` greater than ``idx``."""
        entries = self.by_reg.get(reg, ())
        pos = bisect_right(entries, (idx, _LAST_SLOT))
        return entries[pos][0] if pos < len(entries) else None

    def any_in(self, reg: int, lo: int, hi: int) -> bool:
        """A death of ``reg`` with lo < index <= hi?"""
        entries = self.by_reg.get(reg, ())
        pos = bisect_right(entries, (lo, _LAST_SLOT))
        return pos < len(entries) and entries[pos][0] <= hi

    def remove(self, reg: int, lo: int, hi: int) -> None:
        """Drop every death of ``reg`` with lo < index <= hi."""
        entries = self.by_reg.get(reg, [])
        start = bisect_right(entries, (lo, _LAST_SLOT))
        stop = bisect_right(entries, (hi, _LAST_SLOT))
        for _, slot in entries[start:stop]:
            self.regs[slot] = None
        del entries[start:stop]

    def move(self, idx: int, old: int, new: int) -> None:
        """Rename the earliest-listed ``(idx, old)`` to ``(idx, new)``."""
        entries = self.by_reg.get(old, [])
        pos = bisect_left(entries, (idx, -1))
        if pos == len(entries) or entries[pos][0] != idx:
            return
        entry = entries.pop(pos)
        self.regs[entry[1]] = new
        insort(self.by_reg.setdefault(new, []), entry)

    def to_list(self) -> List[Tuple[int, int]]:
        return [
            (d, r) for d, r in zip(self.indices, self.regs) if r is not None
        ]


# ---------------------------------------------------------------------------
# Results.
# ---------------------------------------------------------------------------


@dataclass
class RewriteEvent:
    """One applied rewrite (collected in trace mode, for ``--dump-asm``)."""

    rule: str
    index: int
    before: str
    after: str

    def render(self) -> str:
        return f"[{self.rule}] @{self.index}: {self.before} -> {self.after}"


@dataclass
class PeepholeResult:
    """Per-rule hit counts and (in trace mode) the rewrite log."""

    hits: Counter = field(default_factory=Counter)
    events: List[RewriteEvent] = field(default_factory=list)
    iterations: int = 0

    @property
    def total(self) -> int:
        return sum(self.hits.values())

    def as_dict(self) -> Dict[str, object]:
        return {
            "total": self.total,
            "iterations": self.iterations,
            "hits": {rule: self.hits[rule] for rule in ALL_RULES},
        }


# ---------------------------------------------------------------------------
# The engine.
# ---------------------------------------------------------------------------


class _Engine:
    """One peephole run over a buffer.

    Rules only rewrite items in place or tombstone them until
    ``compact()``, so item positions -- and with them the label map --
    hold for the whole run.  Instruction facts are memoized per run by
    ``(opcode, operands)``, the only fields ``instr_effects`` reads; a
    rename installs a new operand tuple, so an entry never goes stale.
    """

    def __init__(
        self,
        buffer: CodeBuffer,
        labels: LabelDictionary,
        enabled: Set[str],
        trace: bool,
    ):
        self.buffer = buffer
        self.items = buffer.items
        self.deaths = _DeathIndex(buffer.deaths)
        self.label_pos = _label_positions(self.items)
        self.facts_memo: Dict[Tuple[str, tuple], _Facts] = {}
        self.labels = labels
        self.enabled = enabled
        self.trace = trace
        self.result = PeepholeResult()
        self.protected = self._compute_protected()

    # ---- bookkeeping ------------------------------------------------------

    def _compute_protected(self) -> Set[int]:
        """Indices inside a SkipSite's fixed byte span: these items may
        never be deleted or resized (the skip target is an offset)."""
        protected: Set[int] = set()
        for i, item in enumerate(self.items):
            if not isinstance(item, SkipSite):
                continue
            remaining = 2 * item.halfwords
            j = i + 1
            while remaining > 0 and j < len(self.items):
                protected.add(j)
                remaining -= _item_min_size(self.items[j])
                j += 1
        return protected

    def _record(self, rule: str, index: int, before, after) -> None:
        self.result.hits[rule] += 1
        if self.trace:
            self.result.events.append(
                RewriteEvent(
                    rule,
                    index,
                    _render(before) if before is not None else "(nothing)",
                    _render(after) if after is not None else "(deleted)",
                )
            )

    def _facts(self, instr: Instr) -> _Facts:
        key = (instr.opcode, instr.operands)
        facts = self.facts_memo.get(key)
        if facts is None:
            facts = self.facts_memo[key] = _facts(instr)
        return facts

    # ---- scanning helpers -------------------------------------------------

    def _next_real(self, idx: int, skip_labels: bool = False):
        """(index, item) of the next non-tombstone, non-StmtMark item."""
        j = idx + 1
        while j < len(self.items):
            item = self.items[j]
            if item is None or isinstance(item, StmtMark) or (
                skip_labels and isinstance(item, LabelMark)
            ):
                j += 1
                continue
            return j, item
        return None, None

    def _cc_dead_after(self, idx: int) -> bool:
        """No later reader can observe the condition code set at idx.

        The scan follows the single execution path leaving ``idx``: an
        unconditional branch continues at its target's label, a
        never-taken branch (cond 0) falls through, and labels are
        crossed freely -- whoever else jumps to the label, the reader
        past it sees *this* CC only when control came from here.  A
        real conditional branch or skip reads the CC; calls, barriers
        and in-stream data assume the worst.
        """
        label_pos = self.label_pos
        visited: Set[int] = set()
        j = idx + 1
        while j < len(self.items):
            if j in visited:
                # A cycle of CC-neutral items: no reader on the path.
                return True
            visited.add(j)
            item = self.items[j]
            if item is None or isinstance(item, (StmtMark, LabelMark)):
                j += 1
                continue
            if isinstance(item, BranchSite):
                if item.link_reg is not None:
                    return False  # the callee may inspect the CC
                if item.cond == 0:
                    j += 1  # never taken: pure fall-through
                    continue
                if item.cond == _COND_ALWAYS:
                    target = label_pos.get(item.label)
                    if target is None:
                        return False
                    j = target
                    continue
                return False  # a real conditional: reads the CC
            if isinstance(item, SkipSite):
                if item.cond == 0:
                    j += 1  # never skips: the span simply executes
                    continue
                return False
            if not isinstance(item, Instr):
                return False  # data in the stream: assume the worst
            facts = self._facts(item)
            if facts.barrier:
                return False
            if facts.sets_cc:
                return True  # overwritten before any read
            j += 1
        return True  # fell off the end: nothing ever reads it

    # ---- rules ------------------------------------------------------------

    def run_rule(self, rule: str) -> bool:
        return getattr(self, f"_rule_{rule}")()

    def _rule_store_load(self) -> bool:
        changed = False
        items = self.items
        for st_idx, item in enumerate(items):
            if not (isinstance(item, Instr) and item.opcode == "st"):
                continue
            if len(item.operands) != 2 \
                    or not isinstance(item.operands[0], R) \
                    or not isinstance(item.operands[1], Mem):
                continue
            r1 = item.operands[0].n
            m = item.operands[1]
            if r1 in (m.base, m.index):
                continue
            loc = (m.base, m.index, m.disp, 4)
            load_idx, r2 = self._find_forwardable_load(st_idx, r1, m, loc)
            if load_idx is None:
                continue
            if self._apply_store_load(st_idx, load_idx, r1, r2, m):
                changed = True
        return changed

    def _find_forwardable_load(self, st_idx, r1, m, loc):
        """The first ``L rX,m`` after the store with a clean window."""
        items = self.items
        j = st_idx + 1
        steps = 0
        while j < len(items) and steps < _WINDOW:
            item = items[j]
            if item is None or isinstance(item, StmtMark):
                j += 1
                continue
            if _is_flow(item):
                return None, None
            steps += 1
            facts = self._facts(item)
            if facts.barrier:
                return None, None
            if isinstance(item, Instr) and item.opcode == "l" \
                    and len(item.operands) == 2 \
                    and isinstance(item.operands[0], R) \
                    and item.operands[1] == m:
                return j, item.operands[0].n
            if any(_may_alias(w, loc) for w in facts.writes):
                return None, None
            if r1 in facts.defs:
                return None, None
            if (m.base and m.base in facts.defs) \
                    or (m.index and m.index in facts.defs):
                return None, None
            j += 1
        return None, None

    def _apply_store_load(self, st_idx, load_idx, r1, r2, m) -> bool:
        items = self.items
        load = items[load_idx]
        if load_idx in self.protected:  # the load gets deleted: no resize
            return False
        if r1 == r2:
            # The reload target still holds the stored value.
            self._record("store_load", load_idx, load, None)
            items[load_idx] = None
            # The deleted load was the next def: uses it fed now read the
            # (identical) pre-death value, so consume any death in between.
            self.deaths.remove(r1, st_idx, load_idx)
            return True
        if r2 in (m.base, m.index):
            return False  # the load addresses through its own target
        # Cross-register forwarding: r1 must be dead at the load (so its
        # copy of m survives unread) and r2's whole live span must be a
        # renameable straight-line stretch.
        if not self.deaths.any_in(r1, st_idx, load_idx):
            return False
        d2 = self.deaths.first_after(r2, load_idx)
        if d2 is None:
            return False
        span = range(load_idx + 1, min(d2, len(items)))
        for k in span:
            item = items[k]
            if item is None or isinstance(item, StmtMark):
                continue
            if _is_flow(item):
                return False
            facts = self._facts(item)
            if facts.barrier:
                return False
            if r1 in facts.defs or r1 in facts.uses:
                return False
            if facts.pair and (r2 in facts.uses or r2 in facts.defs):
                return False
            if _imm_reg_mention(item, r2):
                return False
        self._record(
            "store_load", load_idx, load,
            Instr("*", (), comment=f"forward r{r1} over {len(span)} items"),
        )
        if self.trace:
            self.result.events[-1].after = (
                f"(deleted; r{r2} -> r{r1} through index {d2})"
            )
        items[load_idx] = None
        for k in span:
            item = items[k]
            if isinstance(item, Instr):
                _rename_reg(item, r2, r1)
        # r1 is live again until d2; r2's span no longer exists.
        self.deaths.remove(r1, st_idx, load_idx)
        self.deaths.move(d2, r2, r1)
        return True

    def _rule_load_load(self) -> bool:
        changed = False
        items = self.items
        for i, first in enumerate(items):
            if not (isinstance(first, Instr) and first.opcode == "l"):
                continue
            if len(first.operands) != 2 \
                    or not isinstance(first.operands[0], R) \
                    or not isinstance(first.operands[1], Mem):
                continue
            r1 = first.operands[0].n
            m = first.operands[1]
            if r1 in (m.base, m.index):
                continue  # the first load changes its own address regs
            j, second = self._next_real(i)
            if not (isinstance(second, Instr) and second.opcode == "l"):
                continue
            if len(second.operands) != 2 \
                    or not isinstance(second.operands[0], R) \
                    or second.operands[1] != m:
                continue
            if j in self.protected:
                continue  # delete or RR-resize either way
            r2 = second.operands[0].n
            if r1 == r2:
                self._record("load_load", j, second, None)
                items[j] = None
                self.deaths.remove(r1, i, j)
                changed = True
                continue
            if self.deaths.any_in(r1, i, j):
                continue  # r1 not live at the second load: no new read
            replacement = Instr("lr", (R(r2), R(r1)), comment=second.comment)
            self._record("load_load", j, second, replacement)
            items[j] = replacement
            changed = True
        return changed

    def _rule_zero_clear(self) -> bool:
        changed = False
        for i, item in enumerate(self.items):
            if not (isinstance(item, Instr) and item.opcode == "la"):
                continue
            if len(item.operands) != 2 \
                    or not isinstance(item.operands[0], R):
                continue
            target = item.operands[1]
            is_zero = (
                isinstance(target, Mem)
                and (target.disp, target.index, target.base) == (0, 0, 0)
            ) or (isinstance(target, Imm) and target.value == 0)
            if not is_zero:
                continue
            if i in self.protected:  # RX -> RR shrinks the skip span
                continue
            if not self._cc_dead_after(i):  # SR sets the CC, LA does not
                continue
            reg = item.operands[0].n
            replacement = Instr("sr", (R(reg), R(reg)), comment=item.comment)
            self._record("zero_clear", i, item, replacement)
            self.items[i] = replacement
            changed = True
        return changed

    def _rule_branch_chain(self) -> bool:
        changed = False
        items = self.items
        label_pos = self.label_pos
        for idx, site in enumerate(items):
            if not isinstance(site, BranchSite) or site.link_reg is not None:
                continue
            mark_idx = label_pos.get(site.label)
            if mark_idx is None:
                continue
            j, nxt = self._next_real(mark_idx, skip_labels=True)
            if not isinstance(nxt, BranchSite):
                continue
            if nxt.cond != _COND_ALWAYS or nxt.link_reg is not None:
                continue
            if nxt.label == site.label or j == idx:
                continue  # self-loop: nothing to collapse
            if idx in self.protected:
                continue  # retarget could flip short->long inside a skip
            self._record("branch_chain", idx, site, nxt)
            if self.trace:
                self.result.events[-1].after = (
                    f"retarget L{site.label} -> L{nxt.label}"
                )
            site.label = nxt.label
            self.labels.reference(nxt.label)
            changed = True
        return changed

    def _rule_fallthrough_branch(self) -> bool:
        changed = False
        items = self.items
        for idx, site in enumerate(items):
            if not isinstance(site, BranchSite) or site.link_reg is not None:
                continue
            if site.cond != _COND_ALWAYS:
                continue
            if idx in self.protected:
                continue
            j = idx + 1
            falls_through = False
            while j < len(items):
                item = items[j]
                if item is None or isinstance(item, StmtMark):
                    j += 1
                    continue
                if isinstance(item, LabelMark):
                    if item.label == site.label:
                        falls_through = True
                        break
                    j += 1
                    continue
                break
            if falls_through:
                self._record("fallthrough_branch", idx, site, None)
                items[idx] = None
                changed = True
        return changed

def run_peephole(
    generated,
    rules: Optional[Sequence[str]] = None,
    trace: bool = False,
) -> PeepholeResult:
    """Optimize a :class:`~repro.core.codegen.parser_rt.GeneratedCode`
    in place (its buffer is compacted; labels stay symbolic).

    ``rules`` selects a subset of :data:`ALL_RULES` (default: all).
    ``trace`` collects a :class:`RewriteEvent` per application for
    ``compile --dump-asm``.
    """
    enabled = set(ALL_RULES if rules is None else rules)
    unknown = enabled.difference(ALL_RULES)
    if unknown:
        raise CodeGenError(
            f"unknown peephole rules: {sorted(unknown)}; "
            f"known: {list(ALL_RULES)}"
        )
    engine = _Engine(generated.buffer, generated.labels, enabled, trace)
    changed = True
    while changed and engine.result.iterations < _MAX_PASSES:
        changed = False
        engine.result.iterations += 1
        for rule in ALL_RULES:
            if rule in enabled and engine.run_rule(rule):
                changed = True
    generated.buffer.deaths = engine.deaths.to_list()
    generated.buffer.compact()
    return engine.result
