"""Iterative dataflow over the symbolic CFG: the analysis framework.

One generic worklist solver (:func:`iterate`) instantiated four ways:

========================  ================  =======  =====================
analysis                  direction         meet     facts
========================  ================  =======  =====================
:func:`liveness`          backward          union    registers + CC
:func:`reaching_defs`     forward           union    ``(item, reg)`` sites
:func:`def_use_chains`    (derived)         --       def<->use maps
:func:`memory_deadness`   backward          meet(∩)  provably-dead locations
:func:`available_stores`  forward           meet(∩)  ``(loc, reg)`` pairs
:func:`available_copies`  forward           meet(∩)  ``(dst, src)`` pairs
:func:`available_exprs`   forward           meet(∩)  ``(key, reads, dst)``
========================  ================  =======  =====================

All facts are computed from the per-item :class:`~repro.opt.cfg.ItemEffects`
table only, so the framework is machine-independent; skip-span items are
*may*-executed (gen but never kill), ``may_defs`` (long-branch index
registers) kill must-facts without generating liveness, calls and
barriers assume the worst, and ``exits`` blocks meet the all-live /
nothing-available boundary.

Every solved analysis is returned as a :class:`Solution`: its per-block
``ins`` and ``outs`` facts.

**Visiting order.**  Every fact starts at the meet identity, untransferred,
and the worklist visits blocks in buffer order for forward problems and
in reverse buffer order for backward ones, so most problems settle in
one sweep: 1.02 transfers per block on the ``opt_stress`` programs
(2.02 when every block was first transferred once from the identity).

**Per-item cost.**  A step costs a few set operations: the kill set
(``defs | may_defs``) and the available-expression fact of each item
shape are derived once, with its memoized
:class:`~repro.opt.cfg.ItemEffects`, and imports live at module level.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import (
    Callable, Dict, FrozenSet, Iterable, Optional, Set, Tuple,
)

from repro.core.codegen.emitter import Instr, Mem, R
from repro.core.effects import may_alias
from repro.opt.cfg import BasicBlock, Cfg, ItemEffects

#: The condition code, as a pseudo-register in liveness fact sets.
CC = -1

#: Pseudo def-site index for registers defined at entry (ABI bases).
ENTRY = -1


# ---------------------------------------------------------------------------
# Solutions.
# ---------------------------------------------------------------------------


@dataclass
class Solution:
    """A solved analysis: per-block in/out facts."""

    ins: Dict[int, object]
    outs: Dict[int, object]


# ---------------------------------------------------------------------------
# The generic worklist.
# ---------------------------------------------------------------------------


def iterate(
    cfg: Cfg,
    *,
    forward: bool,
    boundary: Callable[[BasicBlock], object],
    transfer: Callable[[BasicBlock, object], object],
    join: Callable[[Iterable[object]], object],
) -> Tuple[Dict[int, object], Dict[int, object]]:
    """Solve one dataflow problem to fixpoint.

    ``boundary(block)`` gives the extra fact meeting into the block's
    input edge-set (entry/exit boundary contributions); ``transfer``
    maps the block's input fact to its output fact; ``join`` merges the
    facts flowing in over edges.  Returns ``(ins, outs)`` keyed by block
    id, where "in" is always the *entry-side* fact of the block in the
    chosen direction (live-out for backward problems lands in ``ins``
    of the successor walk -- callers use the returned dicts through the
    analysis wrappers below, which name them properly).
    """
    blocks = cfg.blocks
    n = len(blocks)
    order = list(range(n)) if forward else list(range(n - 1, -1, -1))
    # Every fact starts at the meet identity, untransferred: the sweep
    # below transfers each block at least once anyway.
    identity = join(())
    ins: Dict[int, object] = dict.fromkeys(order, identity)
    outs: Dict[int, object] = dict(ins)
    pending = set(order)
    # Popped from the end, so blocks are visited in ``order``.
    worklist = order[::-1]
    while worklist:
        bid = worklist.pop()
        pending.discard(bid)
        block = blocks[bid]
        edges = block.preds if forward else block.succs
        contrib = [outs[p] for p in edges]
        contrib.append(boundary(block))
        new_in = join(contrib)
        new_out = transfer(block, new_in)
        ins[bid] = new_in
        if new_out != outs[bid]:
            outs[bid] = new_out
            targets = block.succs if forward else block.preds
            for t in targets:
                if t not in pending:
                    pending.add(t)
                    worklist.append(t)
    return ins, outs


# ---------------------------------------------------------------------------
# Liveness (registers + condition code; backward, may).
# ---------------------------------------------------------------------------


@dataclass
class Liveness:
    """``live_in``/``live_out`` per block: frozensets of register
    numbers plus :data:`CC`."""

    solution: Solution
    all_facts: FrozenSet[int]

    @property
    def live_in(self) -> Dict[int, FrozenSet[int]]:
        return self.solution.outs  # backward: transfer output = entry side

    @property
    def live_out(self) -> Dict[int, FrozenSet[int]]:
        return self.solution.ins


def _step_live(
    live: Set[int], eff: ItemEffects, all_facts: FrozenSet[int]
) -> Set[int]:
    """Transfer one item backward over a live set (in place)."""
    e = eff.effects
    if e.barrier:
        return set(all_facts)
    if not eff.may:
        live -= e.defs
        if e.sets_cc:
            live.discard(CC)
    live |= e.uses
    if e.reads_cc:
        live.add(CC)
    return live


def liveness(cfg: Cfg, nregs: int = 16) -> Liveness:
    all_facts = frozenset(range(nregs)) | {CC}
    effects = cfg.item_effects

    def boundary(block: BasicBlock):
        if block.halts:
            return frozenset()
        if block.exits:
            return all_facts
        if not block.succs:
            return all_facts  # falls off the end: assume the worst
        return frozenset()

    def transfer(block: BasicBlock, live_out):
        live = set(live_out)
        for i in range(block.end - 1, block.start - 1, -1):
            if cfg.buffer.items[i] is None:
                continue
            live = _step_live(live, effects[i], all_facts)
        return frozenset(live)

    def join(facts):
        merged: Set[int] = set()
        for f in facts:
            merged |= f
        return frozenset(merged)

    ins, outs = iterate(
        cfg, forward=False, boundary=boundary, transfer=transfer, join=join
    )
    return Liveness(
        solution=Solution(ins, outs),
        all_facts=all_facts,
    )


def walk_live(cfg: Cfg, result: Liveness, block: BasicBlock):
    """Yield ``(index, item, live_after)`` for a block in reverse order:
    ``live_after`` is the fact *after* the item executes."""
    live = set(result.live_out.get(block.bid, result.all_facts))
    items = cfg.buffer.items
    for i in range(block.end - 1, block.start - 1, -1):
        item = items[i]
        if item is None:
            continue
        yield i, item, frozenset(live)
        live = _step_live(live, cfg.item_effects[i], result.all_facts)


# ---------------------------------------------------------------------------
# Reaching definitions (forward, may) and def-use chains.
# ---------------------------------------------------------------------------


@dataclass
class ReachingDefs:
    """Per-block reaching def sites ``(item_index, reg)``;
    ``(ENTRY, reg)`` is the entry pseudo-def of an ABI register."""

    solution: Solution
    nregs: int

    @property
    def reach_in(self) -> Dict[int, FrozenSet[Tuple[int, int]]]:
        return self.solution.ins


def _step_defs(
    defs: Set[Tuple[int, int]], i: int, eff: ItemEffects, nregs: int
) -> Set[Tuple[int, int]]:
    e = eff.effects
    if e.barrier:
        # Defines every register (calls return with the ABI state).
        return {(i, r) for r in range(nregs)}
    if e.defs:
        if not eff.may:
            defs = {(s, r) for (s, r) in defs if r not in e.defs}
        defs |= {(i, r) for r in e.defs}
    if e.may_defs:
        # Gen without kill: the old definitions may survive too.
        defs = defs | {(i, r) for r in e.may_defs}
    return defs


def reaching_defs(cfg: Cfg, nregs: int = 16,
                  entry_defined: FrozenSet[int] = frozenset()
                  ) -> ReachingDefs:
    effects = cfg.item_effects
    entry_facts = frozenset((ENTRY, r) for r in entry_defined)
    root_set = set(cfg.roots)

    def boundary(block: BasicBlock):
        return entry_facts if block.bid in root_set else frozenset()

    def transfer(block: BasicBlock, reach_in):
        defs = set(reach_in)
        for i in block.indices():
            if cfg.buffer.items[i] is None:
                continue
            defs = _step_defs(defs, i, effects[i], nregs)
        return frozenset(defs)

    def join(facts):
        merged: Set[Tuple[int, int]] = set()
        for f in facts:
            merged |= f
        return frozenset(merged)

    ins, outs = iterate(
        cfg, forward=True, boundary=boundary, transfer=transfer, join=join
    )
    return ReachingDefs(
        solution=Solution(ins, outs), nregs=nregs
    )


@dataclass
class DefUseChains:
    """Item-level chains derived from reaching definitions."""

    #: (use item index, reg) -> def sites reaching that use.
    defs_of_use: Dict[Tuple[int, int], FrozenSet[Tuple[int, int]]]
    #: (def item index, reg) -> use sites the def reaches.
    uses_of_def: Dict[Tuple[int, int], FrozenSet[Tuple[int, int]]]


def def_use_chains(cfg: Cfg, reaching: ReachingDefs) -> DefUseChains:
    """Walk each reachable block forward, resolving every register use
    against the defs reaching it."""
    defs_of_use: Dict[Tuple[int, int], Set[Tuple[int, int]]] = {}
    uses_of_def: Dict[Tuple[int, int], Set[Tuple[int, int]]] = {}
    for block in cfg.blocks:
        if block.bid not in cfg.reachable:
            continue
        defs = set(reaching.reach_in.get(block.bid, frozenset()))
        for i, item in cfg.block_items(block):
            eff = cfg.item_effects[i]
            e = eff.effects
            used = set(e.uses)
            if e.barrier and isinstance(item, Instr):
                used = set()  # barrier "uses everything": not real uses
            for reg in used:
                sites = frozenset(s for s in defs if s[1] == reg)
                defs_of_use[(i, reg)] = set(sites)
                for site in sites:
                    uses_of_def.setdefault(site, set()).add((i, reg))
            defs = _step_defs(defs, i, eff, reaching.nregs)
    return DefUseChains(
        defs_of_use={k: frozenset(v) for k, v in defs_of_use.items()},
        uses_of_def={k: frozenset(v) for k, v in uses_of_def.items()},
    )


# ---------------------------------------------------------------------------
# Memory deadness (backward, must) -- fuel for global DSE and SL051.
# ---------------------------------------------------------------------------
#
# Liveness over an unbounded location space cannot kill under the
# conservative "everything may be read at exit" boundary, so the
# analysis tracks the *complement*: the set of locations provably dead
# (overwritten before any aliasing read on every path).  The meet is
# intersection; ``None`` is TOP (the universe -- everything dead), which
# only flows out of halt boundaries and unreached fixpoint states.

#: ``None`` is TOP (all locations dead); otherwise the exact dead set.
MemFact = Optional[FrozenSet[tuple]]


@dataclass
class MemDeadness:
    solution: Solution

    @property
    def dead_out(self) -> Dict[int, MemFact]:
        return self.solution.ins


def _step_dead(fact: MemFact, eff: ItemEffects,
               disjoint: FrozenSet = frozenset()) -> MemFact:
    """Backward transfer: dead-after -> dead-before one item.

    ``may_writes`` need no handling here: a write that may not happen
    generates no deadness, and only ``reads`` revive locations."""
    e = eff.effects
    if e.barrier:
        return frozenset()  # the barrier may read anything
    # Reads revive anything they might touch.
    if e.reads:
        dead = set() if fact is None else set(fact)
        if fact is not None:
            for r in e.reads:
                if r is None:
                    dead.clear()
                    break
                dead = {d for d in dead if not may_alias(d, r, disjoint)}
        else:
            dead = set()  # TOP minus an alias set: approximate down
        fact = frozenset(dead)
    clobbered = eff.kills
    if fact is not None and clobbered:
        # Redefining a base register changes what same-base locations
        # upstream denote: stop claiming they are dead.
        fact = frozenset(
            d for d in fact
            if d[0] not in clobbered and d[1] not in clobbered
        )
    # A must-write makes its exact location dead upstream.
    if e.writes and not eff.may and fact is not None:
        adds = {
            w for w in e.writes
            if w is not None and w[1] == 0 and w[3] is not None
        }
        if adds:
            fact = fact | adds
    return fact


def memory_deadness(cfg: Cfg) -> MemDeadness:
    def boundary(block: BasicBlock):
        if block.halts:
            return None  # after a clean halt, everything is dead
        if block.exits or not block.succs:
            return frozenset()
        return None  # interior blocks: only real successor edges count

    def transfer(block: BasicBlock, out_fact):
        fact = out_fact
        for i in range(block.end - 1, block.start - 1, -1):
            if cfg.buffer.items[i] is None:
                continue
            fact = _step_dead(fact, cfg.item_effects[i],
                              cfg.disjoint_bases)
        return fact

    def join(facts):
        merged: MemFact = None
        for f in facts:
            if f is None:
                continue
            merged = f if merged is None else (merged & f)
        return merged

    ins, outs = iterate(
        cfg, forward=False, boundary=boundary, transfer=transfer, join=join
    )
    return MemDeadness(Solution(ins, outs))


def walk_mem_dead(cfg: Cfg, result: MemDeadness, block: BasicBlock):
    """Yield ``(index, item, dead_after)`` in reverse block order;
    ``dead_after`` is ``None`` (everything dead) or the exact dead set."""
    fact = result.dead_out.get(block.bid, frozenset())
    items = cfg.buffer.items
    for i in range(block.end - 1, block.start - 1, -1):
        item = items[i]
        if item is None:
            continue
        yield i, item, fact
        fact = _step_dead(fact, cfg.item_effects[i], cfg.disjoint_bases)


# ---------------------------------------------------------------------------
# Available stores (forward, must) -- cross-block store/load forwarding.
# ---------------------------------------------------------------------------

#: ``None`` is TOP (universal set) for the intersection meet.
AvailFact = Optional[FrozenSet[Tuple[tuple, int]]]


@dataclass
class AvailableStores:
    solution: Solution

    @property
    def avail_in(self) -> Dict[int, AvailFact]:
        return self.solution.ins


def _step_avail(
    pairs: Set[Tuple[tuple, int]], i: int, item, eff: ItemEffects,
    disjoint: FrozenSet = frozenset(),
) -> Set[Tuple[tuple, int]]:
    e = eff.effects
    if e.barrier:
        return set()
    clobbered = eff.kills
    if clobbered:
        pairs = {
            (loc, reg) for (loc, reg) in pairs
            if reg not in clobbered
            and loc[0] not in clobbered and loc[1] not in clobbered
        }
    if e.may_writes:
        # A summarized call's possible stores: kill, never generate.
        pairs = {
            (loc, reg) for (loc, reg) in pairs
            if not any(may_alias(w, loc, disjoint) for w in e.may_writes)
        }
    if e.writes:
        pairs = {
            (loc, reg) for (loc, reg) in pairs
            if not any(may_alias(w, loc, disjoint) for w in e.writes)
        }
        # ``ST r,m`` makes (m, r) available -- only as a must-write.
        if (
            not eff.may
            and isinstance(item, Instr)
            and len(e.writes) == 1
            and e.writes[0] is not None
            and not e.defs
            and item.opcode == "st"  # full-word stores only (both ISAs)
            and len(item.operands) == 2
            and isinstance(item.operands[0], R)
            and isinstance(item.operands[1], Mem)
        ):
            pairs = set(pairs)
            pairs.add((e.writes[0], item.operands[0].n))
    return pairs


def available_stores(cfg: Cfg) -> AvailableStores:
    root_set = set(cfg.roots)

    def boundary(block: BasicBlock):
        # Entering from outside (entry, callers, branch tables): nothing
        # is known to be available.
        return frozenset() if block.bid in root_set else None

    def transfer(block: BasicBlock, avail_in):
        if avail_in is None:
            return None
        pairs = set(avail_in)
        for i, item in cfg.block_items(block):
            pairs = _step_avail(pairs, i, item, cfg.item_effects[i],
                                cfg.disjoint_bases)
        return frozenset(pairs)

    def join(facts):
        merged: AvailFact = None
        for f in facts:
            if f is None:
                continue
            merged = f if merged is None else (merged & f)
        return merged

    ins, outs = iterate(
        cfg, forward=True, boundary=boundary, transfer=transfer, join=join
    )
    return AvailableStores(Solution(ins, outs))


def walk_avail(cfg: Cfg, result: AvailableStores, block: BasicBlock):
    """Yield ``(index, item, pairs_before)`` in forward block order;
    ``pairs_before`` is the available set *before* the item executes."""
    fact = result.avail_in.get(block.bid)
    pairs = set() if fact is None else set(fact)
    for i, item in cfg.block_items(block):
        yield i, item, frozenset(pairs)
        pairs = _step_avail(pairs, i, item, cfg.item_effects[i],
                            cfg.disjoint_bases)


# ---------------------------------------------------------------------------
# Available expressions (forward, must) -- fuel for -O3 global CSE.
# ---------------------------------------------------------------------------
#
# Facts are ``(key, reads, dst)`` triples: ``key`` is a canonical value
# number of one pure register-producing instruction (opcode plus its
# non-destination operand shape), ``reads`` the storage locations the
# computation depends on (for alias kills), ``dst`` the register
# currently holding the value.  A later instruction computing the same
# ``key`` may reuse ``dst`` instead of recomputing.  SkipSite spans are
# treated as barriers: a may-executed item clears the whole set, so
# nothing computed under a conditional skip ever looks available.

#: ``None`` is TOP (universal set) for the intersection meet.
ExprFact = Optional[FrozenSet[Tuple[tuple, Tuple, int]]]


@dataclass
class AvailableExprs:
    solution: Solution
    expr_ops: FrozenSet[str]
    #: locations whose writes are known not to touch any fact's operands
    #: (the spill planner's compiler-private scratch slots); empty for
    #: every other client, keeping the analysis fully conservative.
    private: FrozenSet = frozenset()

    @property
    def exprs_in(self) -> Dict[int, ExprFact]:
        return self.solution.ins

    @property
    def exprs_out(self) -> Dict[int, ExprFact]:
        return self.solution.outs


@lru_cache(maxsize=4096)
def _fact_regs(key: tuple) -> FrozenSet[int]:
    """Registers the expression's value depends on (operand mentions)."""
    regs: Set[int] = set()
    for part in key[1:]:
        if part[0] == "r":
            regs.add(part[1])
        elif part[0] == "m":
            # Zero means "no base/index register" in both ISAs' address
            # encodings, mirroring _addr_regs's truthiness convention.
            if part[1]:
                regs.add(part[1])
            if part[2]:
                regs.add(part[2])
    return frozenset(regs)


def _step_exprs(
    facts: Set[Tuple[tuple, Tuple, int]],
    eff: ItemEffects,
    expr_ops: FrozenSet[str],
    private: FrozenSet = frozenset(),
    disjoint: FrozenSet = frozenset(),
) -> Set[Tuple[tuple, Tuple, int]]:
    e = eff.effects
    if e.barrier or eff.may:
        # May-executed (skip-span) items are barriers for this analysis:
        # their defs might or might not have happened.
        return set()
    clobbered = eff.kills
    if clobbered:
        facts = {
            f for f in facts
            if f[2] not in clobbered
            and not (_fact_regs(f[0]) & clobbered)
        }
    stores = e.writes + e.may_writes
    if stores:
        # A write to a declared-private location (a spill scratch slot)
        # only kills facts reading that exact location; any other write
        # (must or may -- a summarized call's possible stores kill just
        # the same) kills every fact it may alias.
        facts = {
            f for f in facts
            if not any(
                (w == r) if w in private else may_alias(w, r, disjoint)
                for w in stores for r in f[1]
            )
        }
    gen = eff.expr
    if gen is not None and gen[0][0] in expr_ops:
        facts = set(facts)
        # The def above killed any older fact mentioning dst, including
        # this same key bound to a stale register.
        facts.add(gen)
    return facts


def available_exprs(
    cfg: Cfg, expr_ops: FrozenSet[str],
    private: FrozenSet = frozenset(),
) -> AvailableExprs:
    root_set = set(cfg.roots)
    effects = cfg.item_effects
    disjoint = cfg.disjoint_bases

    def boundary(block: BasicBlock):
        return frozenset() if block.bid in root_set else None

    def transfer(block: BasicBlock, exprs_in):
        if exprs_in is None:
            return None
        facts = set(exprs_in)
        for i, _ in cfg.block_items(block):
            facts = _step_exprs(
                facts, effects[i], expr_ops, private, disjoint
            )
        return frozenset(facts)

    def join(facts):
        merged: ExprFact = None
        for f in facts:
            if f is None:
                continue
            merged = f if merged is None else (merged & f)
        return merged

    ins, outs = iterate(
        cfg, forward=True, boundary=boundary, transfer=transfer, join=join
    )
    return AvailableExprs(
        Solution(ins, outs), expr_ops, private
    )


def walk_exprs(cfg: Cfg, result: AvailableExprs, block: BasicBlock):
    """Yield ``(index, item, facts_before)`` in forward block order.

    A client may rewrite the yielded item (through ``buffer.items`` and
    ``cfg.item_effects``) into one that leaves the same value in the
    same register, as global CSE does: the walk then steps the
    replacement and adds back the replaced item's own fact, reads
    included, so a later aliasing store still kills it."""
    fact = result.exprs_in.get(block.bid)
    facts = set() if fact is None else set(fact)
    items = cfg.buffer.items
    effects = cfg.item_effects
    for i, item in cfg.block_items(block):
        old = effects[i].expr
        yield i, item, frozenset(facts)
        facts = _step_exprs(
            facts, effects[i], result.expr_ops, result.private,
            cfg.disjoint_bases,
        )
        if items[i] is not item and old is not None \
                and old[0][0] in result.expr_ops:
            facts = set(facts)
            facts.add(old)


# ---------------------------------------------------------------------------
# Available copies (forward, must) -- register-equality facts.
# ---------------------------------------------------------------------------

#: ``None`` is TOP for the intersection meet; facts are ``(dst, src)``
#: pairs meaning "dst was copied from src and neither changed since".
CopyFact = Optional[FrozenSet[Tuple[int, int]]]


@dataclass
class AvailableCopies:
    solution: Solution
    move_op: str

    @property
    def copies_in(self) -> Dict[int, CopyFact]:
        return self.solution.ins


def _is_reg_move(item, eff: ItemEffects, move_op: str) -> bool:
    e = eff.effects
    return (
        isinstance(item, Instr)
        and item.opcode == move_op
        and len(e.defs) == 1
        and len(e.uses) == 1
        and not (e.reads or e.writes or e.sets_cc or e.barrier or e.flow)
    )


def _step_copies(
    pairs: Set[Tuple[int, int]], item, eff: ItemEffects, move_op: str
) -> Set[Tuple[int, int]]:
    e = eff.effects
    if e.barrier:
        return set()
    clobbered = eff.kills
    if clobbered:
        pairs = {
            (dst, src) for (dst, src) in pairs
            if dst not in clobbered and src not in clobbered
        }
    if not eff.may and _is_reg_move(item, eff, move_op):
        dst = next(iter(e.defs))
        src = next(iter(e.uses))
        if dst != src:
            pairs = set(pairs)
            pairs.add((dst, src))
    return pairs


def available_copies(cfg: Cfg, move_op: str = "lr") -> AvailableCopies:
    root_set = set(cfg.roots)

    def boundary(block: BasicBlock):
        return frozenset() if block.bid in root_set else None

    def transfer(block: BasicBlock, copies_in):
        if copies_in is None:
            return None
        pairs = set(copies_in)
        for i, item in cfg.block_items(block):
            pairs = _step_copies(pairs, item, cfg.item_effects[i], move_op)
        return frozenset(pairs)

    def join(facts):
        merged: CopyFact = None
        for f in facts:
            if f is None:
                continue
            merged = f if merged is None else (merged & f)
        return merged

    ins, outs = iterate(
        cfg, forward=True, boundary=boundary, transfer=transfer, join=join
    )
    return AvailableCopies(
        Solution(ins, outs), move_op
    )


def walk_copies(cfg: Cfg, result: AvailableCopies, block: BasicBlock):
    """Yield ``(index, item, pairs_before)`` in forward block order."""
    fact = result.copies_in.get(block.bid)
    pairs = set() if fact is None else set(fact)
    for i, item in cfg.block_items(block):
        yield i, item, frozenset(pairs)
        pairs = _step_copies(
            pairs, item, cfg.item_effects[i], result.move_op
        )
