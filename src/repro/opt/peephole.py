"""The -O1 peephole optimizer: one forward pass over symbolic S/370 code.

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
``store_load``        ``ST r1,m ... L r2,m`` -> delete the load (renaming
                      ``r2`` to ``r1`` when ``r2 != r1``)
``load_load``         ``L r1,m ... L r2,m`` -> ``LR r2,r1`` (delete if equal)
``zero_clear``        ``LA r,0`` -> ``SR r,r`` (2 bytes shorter; needs a
                      dead condition code, SR sets it)
``branch_chain``      branch to an unconditional branch -> branch to the
                      chain's final target
``fallthrough_branch`` unconditional branch to the next location -> delete
====================  ======================================================

**Home-location map.**  One forward sweep keeps, for each fullword home
location, the registers known to hold its value (paper 4.1/4.4: the
register manager knows what each register holds).  Each instruction
first kills the entries its effects may touch -- a write that may alias
the location, a redefinition of a holder or of an address register --
and labels, branches, skip sites, control transfers and barriers clear
the whole map.  A held ``L r2,m`` is then deleted (``r2`` holds ``m``),
renamed away (an ``ST`` left ``r1`` dead, per the allocator's death
facts ``CodeBuffer.deaths``: ``r2``'s live span reads ``r1`` instead)
or turned into ``LR r2,r1`` (an ``L`` left ``r1`` live).  Then ``ST``
and ``L`` record their associations, so a reuse counts as a hit of its
holder's source rule.  Items in a ``SkipSite`` span (the fixed
``2*halfwords`` bytes an intra-template skip hops over) execute
conditionally: they are never deleted or resized and record nothing.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import CodeGenError
from repro.core.codegen.emitter import (
    BranchSite,
    Imm,
    Instr,
    LabelMark,
    Mem,
    R,
    SkipSite,
    StmtMark,
)
from repro.core.effects import may_alias
from repro.machines.s370.effects import renamed_operands
from repro.machines.s370.encode import S370Encoder
from repro.opt.cfg import compute_skip_spans, item_effects

#: Every rule the engine knows, in application order.
ALL_RULES = (
    "store_load",
    "load_load",
    "zero_clear",
    "branch_chain",
    "fallthrough_branch",
)

_COND_ALWAYS = 15
#: Effects come from the shared S/370 table through the CFG layer's memo.
_ENCODER = S370Encoder()
_MARKS = (StmtMark, LabelMark)
_ZERO = (Mem(0, 0, 0), Imm(0))


def _label_positions(items) -> Dict[int, int]:
    """label -> index of its ``LabelMark``."""
    return {
        item.label: k
        for k, item in enumerate(items)
        if isinstance(item, LabelMark)
    }


def _home(instr: Instr) -> Optional[Tuple[int, tuple]]:
    """``(r, loc)`` when ``instr`` is ``ST``/``L r,m`` on the fullword
    home location ``m`` not addressed through ``r`` itself."""
    if instr.opcode not in ("st", "l") or len(instr.operands) != 2:
        return None
    reg, mem = instr.operands
    if not isinstance(reg, R) or not isinstance(mem, Mem) \
            or reg.n in (mem.base, mem.index):
        return None
    return reg.n, (mem.base, mem.index, mem.disp, 4)


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
class RewriteResult:
    """Hit counts per rewrite in ``names``, the number of passes made
    and (in trace mode) the rewrite log; the global passes
    (:mod:`repro.opt.globalopt`) extend it."""

    names: Tuple[str, ...] = ALL_RULES
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
            "hits": {name: self.hits[name] for name in self.names},
        }


class _Engine:
    """One peephole run over a buffer.

    Rules only rewrite items in place or tombstone them until
    ``compact()``, so item positions -- and with them the label map and
    the skip spans -- hold for the whole run.  Slot ``s`` of the buffer's
    death list dies at ``died[s]`` (clamped to the buffer's end) and
    names register ``dead[s]`` (``None`` once consumed); ``dies_at``
    maps an index to its slots.
    """

    def __init__(self, generated, enabled: Set[str], trace: bool):
        self.items = generated.buffer.items
        self.labels = generated.labels
        self.enabled = enabled
        self.trace = trace
        self.result = RewriteResult(iterations=1)
        self.spans = compute_skip_spans(self.items, _ENCODER)
        self.label_pos = _label_positions(self.items)
        end = len(self.items)
        self.died = [min(d, end) for d, _ in generated.buffer.deaths]
        self.dead = [r for _, r in generated.buffer.deaths]
        self.dies_at: Dict[int, List[int]] = {}
        for slot, d in enumerate(self.died):
            self.dies_at.setdefault(d, []).append(slot)

    def _record(self, rule: str, index: int, before, after) -> None:
        self.result.hits[rule] += 1
        if self.trace:
            from repro.core.codegen.parser_rt import _render_item

            if not isinstance(after, str):
                after = "(deleted)" if after is None \
                    else _render_item(after).strip()
            self.result.events.append(RewriteEvent(
                rule, index, _render_item(before).strip(), after
            ))

    # ---- store_load / load_load: the home-location map ---------------------

    def forward(self) -> None:
        """One sweep with ``held``: loc -> {reg: (index, source rule)}."""
        dead = self.dead
        record = {op: rule for op, rule in (("st", "store_load"),
                                            ("l", "load_load"))
                  if rule in self.enabled}
        held: Dict[tuple, Dict[int, Tuple[int, str]]] = {}
        #: reg -> slots of its deaths swept so far, in index order.
        passed: Dict[int, List[int]] = {}
        for i, item in enumerate(self.items):
            for slot in self.dies_at.get(i, ()):
                if dead[slot] is not None:
                    passed.setdefault(dead[slot], []).append(slot)
            if item is None or isinstance(item, StmtMark):
                continue
            if not isinstance(item, Instr) or i in self.spans:
                held.clear()
                continue
            home = _home(item)
            if home is None and not held:
                continue  # nothing to kill, nothing to record
            if home is not None and item.opcode == "l" and home[1] in held:
                item = self._reuse(i, item, home, held[home[1]], passed)
                if item is None:
                    continue
            fx = item_effects(item, _ENCODER, False)
            effects, kills = fx.effects, fx.kills
            if effects.barrier or effects.flow:
                held.clear()
                continue
            writes = effects.writes + effects.may_writes \
                if effects.may_writes else effects.writes
            for loc in list(held) if kills or writes else ():
                holders = held[loc]
                for reg in kills:
                    holders.pop(reg, None)
                # (A redefined r0 drops an unbased location: harmless.)
                if not holders or loc[0] in kills or loc[1] in kills \
                        or writes and any(may_alias(w, loc) for w in writes):
                    del held[loc]
            # A load a reuse turned into LR r2,r1 records r2 like an L.
            rule = "load_load" if item.opcode == "lr" \
                else record.get(item.opcode)
            if home is not None and rule is not None:
                held.setdefault(home[1], {})[home[0]] = (i, rule)

    def _dead_since(self, reg: int, since: int, passed) -> bool:
        """A death of ``reg`` swept after index ``since``?"""
        slots = passed.get(reg)
        return bool(slots) and self.died[slots[-1]] > since

    def _consume_deaths(self, reg: int, since: int, passed) -> None:
        """Drop ``reg``'s swept deaths after ``since``: a rewrite made
        ``reg`` read again up to the current item."""
        slots = passed.get(reg, [])
        while slots and self.died[slots[-1]] > since:
            self.dead[slots.pop()] = None

    def _reuse(self, i, load, home, holders, passed):
        """Rewrite the held ``L r2,m`` at ``i``; returns the item now at
        ``i`` (``None`` once deleted).

        A store holder serves by renaming once dead, a load holder by a
        copy while live.  A dead holder serves only the first load of
        ``m`` after it: later loads copy the reloaded register, and the
        -O2 passes still see the dead holder's value intact.
        """
        r2 = home[0]
        if r2 in holders:
            since, rule = holders[r2]
            self._record(rule, i, load, None)
            self.items[i] = None
            # The deleted load was r2's next def: uses it fed now read
            # the (identical) older value, so deaths in between are void.
            self._consume_deaths(r2, since, passed)
            return None
        copy_from = None
        for r1, (since, rule) in reversed(list(holders.items())):
            if not self._dead_since(r1, since, passed):
                if rule == "load_load" and copy_from is None:
                    copy_from = r1
            elif rule == "store_load" and self._rename_span(i, r1, r2):
                self._record(rule, i, load, f"(deleted; r{r2} -> r{r1})")
                self.items[i] = None
                self._consume_deaths(r1, since, passed)
                return None
            else:
                del holders[r1]
        if copy_from is None:
            return load
        move = Instr("lr", (R(r2), R(copy_from)), comment=load.comment)
        self._record("load_load", i, load, move)
        self.items[i] = move
        return move

    def _rename_span(self, i: int, r1: int, r2: int) -> bool:
        """Rename ``r2`` to the dead holder ``r1`` through ``r2``'s live
        span after the load at ``i`` (up to ``r2``'s next death, whose
        fact moves to ``r1``).  The span must be straight-line
        instructions that leave ``r1`` alone and name ``r2`` only in
        fields a rename can rewrite; otherwise nothing changes."""
        renames = []
        k = i + 1
        while True:
            slot = next((s for s in self.dies_at.get(k, ())
                         if self.dead[s] == r2), None)
            if slot is not None:
                break
            if k >= len(self.items):
                return False
            item = self.items[k]
            k += 1
            if item is None or isinstance(item, StmtMark):
                continue
            if not isinstance(item, Instr):
                return False
            fx = item_effects(item, _ENCODER, False)
            touched = fx.kills | fx.effects.uses
            if fx.effects.barrier or fx.effects.flow or r1 in touched:
                return False
            if r2 in touched:
                operands = renamed_operands(item, r2, r1)
                after = item_effects(Instr(item.opcode, operands), _ENCODER,
                                     False)
                if fx.effects.pair or r2 in after.kills | after.effects.uses:
                    return False  # an implicit or Imm-encoded use of r2
                renames.append((item, operands))
        for item, operands in renames:
            item.operands = operands
        self.dead[slot] = r1
        return True

    # ---- the single sweeps ------------------------------------------------

    def _cc_dead_after(self, idx: int) -> bool:
        """No later reader can observe the condition code set at idx.

        The scan follows the single execution path leaving ``idx``: an
        unconditional branch continues at its target's label, a
        never-taken branch or skip (cond 0) falls through, and labels
        are crossed freely -- whoever else jumps to the label, the
        reader past it sees *this* CC only when control came from here.
        A real conditional reads the CC; calls, control transfers,
        barriers and in-stream data assume the worst.
        """
        visited: Set[int] = set()
        j = idx + 1
        while j < len(self.items) and j not in visited:
            visited.add(j)
            item = self.items[j]
            j += 1
            if item is None or isinstance(item, _MARKS):
                continue
            if isinstance(item, BranchSite) and item.link_reg is None \
                    and item.cond == _COND_ALWAYS \
                    and item.label in self.label_pos:
                j = self.label_pos[item.label]
                continue
            if isinstance(item, (BranchSite, SkipSite)) and item.cond == 0 \
                    and getattr(item, "link_reg", None) is None:
                continue  # never taken: pure fall-through
            if not isinstance(item, Instr):
                return False  # a CC reader, a call or in-stream data
            effects = item_effects(item, _ENCODER, False).effects
            if effects.barrier or effects.flow or effects.reads_cc:
                return False
            if effects.sets_cc:
                return True  # overwritten before any read
        return True  # the end, or a cycle of CC-neutral items

    def zero_clear(self) -> None:
        for i, item in enumerate(self.items):
            if not isinstance(item, Instr) or item.opcode != "la" \
                    or len(item.operands) != 2 \
                    or not isinstance(item.operands[0], R):
                continue
            target = item.operands[1]
            if target not in _ZERO or i in self.spans:
                continue  # RX -> RR would also shrink a skip span
            if not self._cc_dead_after(i):  # SR sets the CC, LA does not
                continue
            reg = item.operands[0].n
            replacement = Instr("sr", (R(reg), R(reg)), comment=item.comment)
            self._record("zero_clear", i, item, replacement)
            self.items[i] = replacement

    def _jump_at(self, label: int) -> Optional[BranchSite]:
        """The unconditional branch first executed at ``label``, if any."""
        items = self.items
        j = self.label_pos.get(label, len(items)) + 1
        while j < len(items) and (items[j] is None
                                  or isinstance(items[j], _MARKS)):
            j += 1
        site = items[j] if j < len(items) else None
        if isinstance(site, BranchSite) and site.cond == _COND_ALWAYS \
                and site.link_reg is None:
            return site
        return None

    def branch_chain(self) -> None:
        for idx, site in enumerate(self.items):
            if not isinstance(site, BranchSite) or site.link_reg is not None \
                    or idx in self.spans:
                continue  # a retarget could flip short->long in a skip
            target, seen = site.label, {site.label}
            jump = self._jump_at(target)
            while jump is not None and jump.label not in seen:
                target = jump.label
                seen.add(target)
                jump = self._jump_at(target)
            if target != site.label:
                self._record("branch_chain", idx, site,
                             f"retarget L{site.label} -> L{target}")
                site.label = target
                self.labels.reference(target)

    def fallthrough_branch(self) -> None:
        """Backwards, so a deletion exposes the branch before it."""
        items = self.items
        for idx in range(len(items) - 1, -1, -1):
            site = items[idx]
            if not isinstance(site, BranchSite) or site.link_reg is not None \
                    or site.cond != _COND_ALWAYS or idx in self.spans:
                continue
            j = idx + 1
            while j < len(items) and (items[j] is None
                                      or isinstance(items[j], _MARKS)):
                if isinstance(items[j], LabelMark) \
                        and items[j].label == site.label:
                    self._record("fallthrough_branch", idx, site, None)
                    items[idx] = None
                    break
                j += 1


def run_peephole(
    generated,
    rules: Optional[Sequence[str]] = None,
    trace: bool = False,
) -> RewriteResult:
    """Optimize a :class:`~repro.core.codegen.parser_rt.GeneratedCode`
    in place (its buffer is compacted; labels stay symbolic).

    ``rules`` selects a subset of :data:`ALL_RULES` (default: all).
    ``trace`` collects a :class:`RewriteEvent` per application for
    ``compile --dump-asm``.  The rules compose in one pass: forwarding
    never touches a branch or a label, and chains resolve to their final
    target before fall-throughs are deleted.
    """
    enabled = set(ALL_RULES if rules is None else rules)
    unknown = enabled.difference(ALL_RULES)
    if unknown:
        raise CodeGenError(
            f"unknown peephole rules: {sorted(unknown)}; "
            f"known: {list(ALL_RULES)}"
        )
    engine = _Engine(generated, enabled, trace)
    if enabled & {"store_load", "load_load"}:
        engine.forward()
    for rule in ("zero_clear", "branch_chain", "fallthrough_branch"):
        if rule in enabled:
            getattr(engine, rule)()
    generated.buffer.deaths = [
        (d, r) for (d, _), r in zip(generated.buffer.deaths, engine.dead)
        if r is not None
    ]
    generated.buffer.compact()
    return engine.result
