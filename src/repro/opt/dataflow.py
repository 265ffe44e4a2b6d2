"""Iterative dataflow over the symbolic CFG: a bit-vector kernel.

One worklist (:func:`_fixpoint`) over per-block transfer summaries,
instantiated seven ways:

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
:func:`available_values`  forward           meet(∩)  the three above, tagged
========================  ================  =======  =====================

The global optimizer (:mod:`repro.opt.globalopt`) solves three per
round: available values, the union of the three forward families
above it with every family's gen and kill rules, forward; liveness and
memory deadness backward, walked in step.  The spill planner reads
liveness and available expressions, the SL05x sanitizer reaching
definitions and memory deadness; available stores and copies are the
per-family references the value problem is tested against
(``tests/test_dataflow_reference.py``).

All facts are computed from the per-item :class:`~repro.opt.cfg.ItemEffects`
table only, so the framework is machine-independent; skip-span items are
*may*-executed (gen but never kill), ``may_defs`` (long-branch index
registers) kill must-facts without generating liveness, calls and
barriers assume the worst, and ``exits`` blocks meet the all-live /
nothing-available boundary.

**Facts are Python ints.**  Each analysis numbers its facts: liveness
puts the condition code at bit 0 and register ``r`` at bit ``r + 1``;
the others give every fact a bit the first time an item generates it,
in a per-CFG index (:class:`_Problem`).  An item's transfer is a
``(kill, gen)`` pair, ``x -> (x & ~kill) | gen``; a kill of ``-1``
clears everything.  Kill masks come from per-register masks and, for
memory, from one alias mask per distinct location, each computed once
per CFG.  A block's transfer is the composition of its items' pairs,
``kill = k1 | k2`` and ``gen = (g1 & ~k2) | g2``, so a solve costs a
few int operations per block visit and a walk one per item.

**TOP.**  The must-analyses meet by intersection with ``None`` as TOP
(everything), flowing only out of unreached states.  A block passes TOP
through unchanged, except in memory deadness, where the first read or
barrier drops it to every numbered location the read cannot alias (the
block's ``top`` summary), so a loop's solve ends at the greatest
fixpoint.

**Per-CFG state.**  Indexes, item pairs and block summaries live in
``cfg.problems`` for as long as the CFG does, so the passes of one
global-optimizer run share them; :meth:`~repro.opt.cfg.Cfg.set_effects`
drops what one rewritten item invalidates.  A fact first generated by a
rewritten item grows the index and resets that analysis' derived masks.

Every solved analysis is returned as a :class:`Solution`: per-block
``in_bits``/``out_bits``, decoded on request by ``ins``/``outs`` into
the frozensets (``None`` for TOP) the set-based formulation produced.

**Visiting order.**  Every fact starts at the meet identity, untransferred,
and the worklist visits blocks in buffer order for forward problems and
in reverse buffer order for backward ones, so most problems settle in
one sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.core.codegen.emitter import Instr, Mem, R
from repro.core.effects import may_alias
from repro.opt.cfg import BasicBlock, Cfg, ItemEffects, reg_bits

#: The condition code, as a pseudo-register in liveness fact sets.
CC = -1

#: Pseudo def-site index for registers defined at entry (ABI bases).
ENTRY = -1

#: The kill mask that clears every fact.
_ALL = -1


def _bits_of(x: int) -> Iterator[int]:
    """Indexes of the set bits of a non-negative int."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


# ---------------------------------------------------------------------------
# Per-CFG analysis state.
# ---------------------------------------------------------------------------


class _Problem:
    """One analysis instance on one CFG: fact index, per-item
    ``(kill, gen)`` pairs and per-block summaries.

    Subclasses define ``_gen`` (numbers the item's facts and returns
    their bits) and ``_kill``; ``_reg_facts`` names the registers whose
    redefinition kills a fact, ``_fact_locs`` the locations it depends
    on and ``_aliases(access, loc)`` whether a memory access kills the
    facts depending on ``loc``.  Items sharing one memoized effects record
    (:func:`repro.opt.cfg.item_effects`) share one pair, unless the
    pair depends on the item's position (``shared`` false)."""

    forward = True
    #: The item pair also carries the item's output on TOP input.
    tops = False
    #: Facts are numbered in :attr:`bits` (all but liveness).
    indexed = True
    #: The pair depends on the effects record alone.
    shared = True

    def __init__(self, cfg: Cfg):
        # The CFG's own tables, not the CFG: it holds this problem, and
        # a reference back would keep both alive until a cyclic
        # collection.
        self.items = cfg.buffer.items
        self.effects = cfg.item_effects
        self.blocks = cfg.blocks
        self.block_of = cfg.block_of
        self.disjoint = cfg.disjoint_bases
        self.bits: Dict[object, int] = {}
        self.facts: List[object] = []
        #: effects record (item index unless ``shared``) -> its gen
        #: bits; bits are never renumbered, so these survive
        #: :meth:`_reset`.
        self._gens: Dict[object, int] = {}
        self._reset()
        for fact in self._seed():
            self.bit(fact)
        if self.indexed:
            # Number every fact before any kill mask is derived.
            effects = cfg.item_effects
            for i, item in enumerate(cfg.buffer.items):
                if item is not None and (
                        effects[i] if self.shared else i) not in self._gens:
                    self._register(i, item, effects[i])

    def _seed(self) -> tuple:
        """Facts numbered before any item's, in this order."""
        return ()

    def _reset(self) -> None:
        self.masks: List[Optional[tuple]] = [None] * len(self.items)
        self.sums: List[Optional[tuple]] = [None] * len(self.blocks)
        #: effects record -> its pair, for ``shared`` problems.
        self._memo: Dict[ItemEffects, tuple] = {}
        self._reg_masks: Optional[Dict[int, int]] = None
        self._kill_regs: Dict[object, int] = {}
        self._by_loc: Optional[Dict[object, int]] = None
        self._loc_masks: Dict[object, int] = {}
        self._groups: Dict[int, Dict[object, int]] = {}
        self._derived = False

    def bit(self, fact) -> int:
        """The mask of one fact, numbering it on first sight."""
        index = self.bits.get(fact)
        if index is None:
            index = self.bits[fact] = len(self.facts)
            self.facts.append(fact)
            if self._derived:
                self._reset()  # kill masks computed without this fact
        return 1 << index

    def known(self, fact) -> int:
        """The mask of one fact, 0 when no item generates it."""
        index = self.bits.get(fact)
        return 0 if index is None else 1 << index

    def lowest(self, x: int):
        """The fact of the lowest set bit of a non-zero ``x``."""
        return self.facts[(x & -x).bit_length() - 1]

    def decode(self, x: Optional[int]):
        if x is None:
            return None
        facts = self.facts
        return frozenset(facts[k] for k in _bits_of(x))

    # ---- kill masks ---------------------------------------------------

    def reg_mask(self, regs) -> int:
        """Facts a redefinition of any of ``regs`` kills (cached per
        register set)."""
        kill = self._kill_regs.get(regs)
        if kill is None:
            masks = self._reg_masks
            if masks is None:
                masks = self._reg_masks = {}
                for k, fact in enumerate(self.facts):
                    for r in self._reg_facts(fact):
                        masks[r] = masks.get(r, 0) | (1 << k)
                self._derived = True
            kill = 0
            for r in regs:
                kill |= masks.get(r, 0)
            self._kill_regs[regs] = kill
        return kill

    def group(self, part: int, value) -> int:
        """The facts whose element ``part`` equals ``value`` (a fact's
        location, destination or key), from one grouping pass over the
        index cached until it grows."""
        groups = self._groups.get(part)
        if groups is None:
            groups = self._groups[part] = {}
            for k, fact in enumerate(self.facts):
                at = fact[part]
                groups[at] = groups.get(at, 0) | (1 << k)
            self._derived = True
        return groups.get(value, 0)

    def loc_mask(self, loc) -> int:
        """Facts a memory access at ``loc`` kills, computed once per
        distinct location from the facts grouped by the locations they
        depend on."""
        bits = self._loc_masks.get(loc)
        if bits is None:
            by_loc = self._by_loc
            if by_loc is None:
                by_loc = self._by_loc = {}
                for k, fact in enumerate(self.facts):
                    for at in self._fact_locs(fact):
                        by_loc[at] = by_loc.get(at, 0) | (1 << k)
            bits = 0
            aliases = self._aliases
            for at, facts in by_loc.items():
                if aliases(loc, at):
                    bits |= facts
            self._loc_masks[loc] = bits
            self._derived = True
        return bits

    # ---- items and blocks ---------------------------------------------

    def _register(self, i: int, item, eff: ItemEffects) -> None:
        self._gens[eff if self.shared else i] = self._gen(i, item, eff)

    def _masks(self, i: int, item, eff: ItemEffects,
               gen: Optional[int] = None) -> tuple:
        if gen is None:
            gen = self._gen(i, item, eff)  # first: it may grow the index
        self._derived = True
        return self._kill(item, eff), gen

    def item(self, i: int) -> tuple:
        """The pair of item ``i``, computed once per effects record."""
        m = self.masks[i]
        if m is None:
            eff = self.effects[i]
            m = self._memo.get(eff)
            if m is None:
                m = self._masks(i, self.items[i], eff,
                                self._gens.get(eff if self.shared else i))
                if self.shared:
                    self._memo[eff] = m
            self.masks[i] = m
        return m

    def step(self, i: int, item) -> tuple:
        """The pair a walk steps item ``i`` with after yielding ``item``:
        the current effects, with the yielded item where a client has
        rewritten it meanwhile."""
        if self.items[i] is item:
            return self.masks[i] or self.item(i)
        return self._masks(i, item, self.effects[i])

    def changed(self, i: int) -> None:
        """Item ``i`` has new effects (:meth:`Cfg.set_effects`)."""
        self.masks[i] = None
        self.sums[self.block_of[i]] = None
        item = self.items[i]
        if item is not None and self.indexed:
            self._register(i, item, self.effects[i])

    def summary(self, bid: int) -> tuple:
        """``(kill, gen, top)`` of one block in the analysis direction;
        ``top`` is its output on TOP input."""
        s = self.sums[bid]
        if s is not None:
            return s
        block = self.blocks[bid]
        items = self.items
        span = (range(block.start, block.end) if self.forward
                else range(block.end - 1, block.start - 1, -1))
        kill = gen = 0
        top = None
        masks = self.masks
        memo = self._memo
        effects = self.effects
        tops = self.tops
        for i in span:
            if items[i] is None:
                continue
            m = masks[i]
            if m is None:
                m = masks[i] = memo.get(effects[i]) or self.item(i)
            k = m[0]
            if tops:
                top = m[2] if top is None else (top & ~k) | m[1]
            kill |= k
            gen = (gen & ~k) | m[1]
        s = self.sums[bid] = (kill, gen, top)
        return s


def _problem(cfg: Cfg, key: tuple, make) -> _Problem:
    problem = cfg.problems.get(key)
    if problem is None:
        problem = cfg.problems[key] = make()
    return problem


@dataclass
class Solution:
    """A solved analysis: per-block in/out facts as bits (``None`` is
    TOP); ``ins``/``outs`` decode them.  "In" is the entry side in the
    analysis direction: live-out for the backward problems."""

    problem: _Problem
    in_bits: Dict[int, Optional[int]]
    out_bits: Dict[int, Optional[int]]

    def decode(self, bits: Optional[int]):
        """The facts of one bit set (``None`` stays TOP)."""
        return self.problem.decode(bits)

    @property
    def ins(self) -> Dict[int, object]:
        decode = self.problem.decode
        return {b: decode(x) for b, x in self.in_bits.items()}

    @property
    def outs(self) -> Dict[int, object]:
        decode = self.problem.decode
        return {b: decode(x) for b, x in self.out_bits.items()}


def _fixpoint(cfg: Cfg, problem: _Problem, boundary: List[Optional[int]],
              must: bool) -> Solution:
    """Solve one problem to fixpoint over its block summaries.

    ``boundary[bid]`` is the extra fact meeting into the block's input
    (entry/exit contributions); ``must`` selects the intersection meet,
    whose identity is TOP (``None``), over the union."""
    blocks = cfg.blocks
    n = len(blocks)
    forward = problem.forward
    order = list(range(n)) if forward else list(range(n - 1, -1, -1))
    identity = None if must else 0
    ins: Dict[int, Optional[int]] = dict.fromkeys(order, identity)
    outs: Dict[int, Optional[int]] = dict(ins)
    pending = set(order)
    worklist = order[::-1]  # popped from the end: visits in ``order``
    summary = problem.summary
    while worklist:
        bid = worklist.pop()
        pending.discard(bid)
        block = blocks[bid]
        x = boundary[bid]
        if must:
            for p in (block.preds if forward else block.succs):
                f = outs[p]
                if f is not None:
                    x = f if x is None else x & f
        else:
            for p in (block.preds if forward else block.succs):
                x |= outs[p]
        kill, gen, top = summary(bid)
        out = top if x is None else (x & ~kill) | gen
        ins[bid] = x
        if out != outs[bid]:
            outs[bid] = out
            for t in (block.succs if forward else block.preds):
                if t not in pending:
                    pending.add(t)
                    worklist.append(t)
    return Solution(problem, ins, outs)


def _walk_backward(cfg: Cfg, solution: Solution, block: BasicBlock):
    """Yield ``(index, item, bits_after)`` in reverse block order.  A
    rewritten item is stepped with its new effects; TOP (``None``) stays
    TOP until an item's pair says otherwise (memory deadness)."""
    problem = solution.problem
    x = solution.in_bits[block.bid]
    items = cfg.buffer.items
    for i in range(block.end - 1, block.start - 1, -1):
        item = items[i]
        if item is None:
            continue
        yield i, item, x
        m = problem.masks[i] or problem.item(i)
        x = m[2] if x is None else (x & ~m[0]) | m[1]


def _walk_forward(cfg: Cfg, solution: Solution, block: BasicBlock):
    """Yield ``(index, item, bits_before)``, TOP entering as nothing."""
    problem = solution.problem
    x = solution.in_bits.get(block.bid) or 0
    items = cfg.buffer.items
    for i in block.indices():
        item = items[i]
        if item is None:
            continue
        yield i, item, x
        k, g = problem.step(i, item)
        x = (x & ~k) | g


# ---------------------------------------------------------------------------
# Liveness (registers + condition code; backward, may).
# ---------------------------------------------------------------------------


class _Live(_Problem):
    """Liveness pairs need no index: each effects record carries its
    own (:attr:`ItemEffects.live`)."""

    forward = False
    indexed = False

    def __init__(self, cfg: Cfg, nregs: int):
        self.all = reg_bits(frozenset(range(nregs))) | 1
        super().__init__(cfg)

    def _masks(self, i: int, item, eff: ItemEffects,
               gen: Optional[int] = None) -> tuple:
        kill, gen = eff.live
        return (kill, self.all) if gen is None else (kill, gen)

    def decode(self, x: Optional[int]):
        return frozenset(CC if k == 0 else k - 1 for k in _bits_of(x))


@dataclass
class Liveness:
    """``live_in``/``live_out`` per block: frozensets of register
    numbers plus :data:`CC` (bits in ``solution``)."""

    solution: Solution
    all_facts: FrozenSet[int]

    @property
    def live_in(self) -> Dict[int, FrozenSet[int]]:
        return self.solution.outs  # backward: transfer output = entry side

    @property
    def live_out(self) -> Dict[int, FrozenSet[int]]:
        return self.solution.ins


def liveness(cfg: Cfg, nregs: int = 16) -> Liveness:
    problem = _problem(cfg, ("live", nregs), lambda: _Live(cfg, nregs))
    everything = problem.all
    boundary = [
        0 if block.halts
        else everything if block.exits or not block.succs
        else 0
        for block in cfg.blocks
    ]
    return Liveness(
        _fixpoint(cfg, problem, boundary, must=False),
        frozenset(range(nregs)) | {CC},
    )


def walk_live(cfg: Cfg, result: Liveness, block: BasicBlock):
    """Yield ``(index, item, live_after)`` for a block in reverse order:
    ``live_after`` is the bits *after* the item executes."""
    return _walk_backward(cfg, result.solution, block)


# ---------------------------------------------------------------------------
# Reaching definitions (forward, may) and def-use chains.
# ---------------------------------------------------------------------------


def _step_defs(
    defs: Set[Tuple[int, int]], i: int, eff: ItemEffects, nregs: int
) -> Set[Tuple[int, int]]:
    """One item's reaching-defs step over a set of sites; from an empty
    set it gives the sites the item generates."""
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


class _Defs(_Problem):
    shared = False  # sites name the item's index

    def __init__(self, cfg: Cfg, nregs: int, entry_defined: FrozenSet[int]):
        self.nregs = nregs
        super().__init__(cfg)
        self.entry = 0
        for r in entry_defined:
            self.entry |= self.bit((ENTRY, r))

    def _gen(self, i: int, item, eff: ItemEffects) -> int:
        gen = 0
        for site in _step_defs(set(), i, eff, self.nregs):
            gen |= self.bit(site)
        return gen

    def _kill(self, item, eff: ItemEffects) -> int:
        e = eff.effects
        if e.barrier:
            return _ALL
        if e.defs and not eff.may:
            return self.reg_mask(e.defs)
        return 0

    @staticmethod
    def _reg_facts(site) -> Tuple[int]:
        return (site[1],)


@dataclass
class ReachingDefs:
    """Per-block reaching def sites ``(item_index, reg)``;
    ``(ENTRY, reg)`` is the entry pseudo-def of an ABI register."""

    solution: Solution


def reaching_defs(cfg: Cfg, nregs: int = 16,
                  entry_defined: FrozenSet[int] = frozenset()
                  ) -> ReachingDefs:
    problem = _problem(
        cfg, ("defs", nregs, entry_defined),
        lambda: _Defs(cfg, nregs, entry_defined),
    )
    roots = set(cfg.roots)
    boundary = [
        problem.entry if block.bid in roots else 0 for block in cfg.blocks
    ]
    return ReachingDefs(_fixpoint(cfg, problem, boundary, must=False))


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
    problem = reaching.solution.problem
    defs_of_use: Dict[Tuple[int, int], FrozenSet[Tuple[int, int]]] = {}
    uses_of_def: Dict[Tuple[int, int], Set[Tuple[int, int]]] = {}
    for block in cfg.blocks:
        if block.bid not in cfg.reachable:
            continue
        for i, item, defs in _walk_forward(cfg, reaching.solution, block):
            e = cfg.item_effects[i].effects
            if e.barrier and isinstance(item, Instr):
                continue  # barrier "uses everything": not real uses
            for reg in e.uses:
                sites = problem.decode(defs & problem.reg_mask((reg,)))
                defs_of_use[(i, reg)] = sites
                for site in sites:
                    uses_of_def.setdefault(site, set()).add((i, reg))
    return DefUseChains(
        defs_of_use=defs_of_use,
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


def _dead_gen(eff: ItemEffects) -> FrozenSet[tuple]:
    """The locations an item makes dead upstream: the exact location of
    each must-write.  A write that may not happen makes none; reads,
    barriers and base-register redefinitions are the kills."""
    e = eff.effects
    if e.barrier or eff.may:
        return frozenset()
    return frozenset(
        w for w in e.writes
        if w is not None and w[1] == 0 and w[3] is not None
    )


class _Dead(_Problem):
    forward = False
    tops = True

    def _gen(self, i: int, item, eff: ItemEffects) -> int:
        bits = 0
        for loc in _dead_gen(eff):
            bits |= self.bit(loc)
        return bits

    def _masks(self, i: int, item, eff: ItemEffects,
               gen: Optional[int] = None) -> tuple:
        kill, gen = super()._masks(i, item, eff, gen)
        # On TOP the first read or barrier leaves every numbered
        # location it does not kill, and what the item makes dead;
        # anything else keeps TOP.
        e = eff.effects
        if not (e.barrier or e.reads):
            return kill, gen, None
        return kill, gen, (((1 << len(self.facts)) - 1) & ~kill) | gen

    def _kill(self, item, eff: ItemEffects) -> int:
        e = eff.effects
        if e.barrier:
            return _ALL
        kill = 0
        for r in e.reads:
            if r is None:
                return _ALL
            kill |= self.loc_mask(r)
        if eff.kills:
            kill |= self.reg_mask(eff.kills)
        return kill

    @staticmethod
    def _reg_facts(loc) -> Tuple[int, int]:
        return loc[0], loc[1]

    @staticmethod
    def _fact_locs(loc) -> tuple:
        return (loc,)

    def _aliases(self, read, loc) -> bool:
        return may_alias(loc, read, self.disjoint)


@dataclass
class MemDeadness:
    solution: Solution


def memory_deadness(cfg: Cfg) -> MemDeadness:
    problem = _problem(cfg, ("dead",), lambda: _Dead(cfg))
    boundary = [
        None if block.halts  # after a clean halt, everything is dead
        else 0 if block.exits or not block.succs
        else None  # interior blocks: only real successor edges count
        for block in cfg.blocks
    ]
    return MemDeadness(_fixpoint(cfg, problem, boundary, must=True))


def walk_mem_dead(cfg: Cfg, result: MemDeadness, block: BasicBlock):
    """Yield ``(index, item, dead_after)`` in reverse block order;
    ``dead_after`` is ``None`` (everything dead) or the dead bits."""
    return _walk_backward(cfg, result.solution, block)


# ---------------------------------------------------------------------------
# Available stores (forward, must) -- cross-block store/load forwarding.
# ---------------------------------------------------------------------------

def _store_pair(item, eff: ItemEffects) -> Optional[tuple]:
    """``ST r,m`` makes ``(m, r)`` available -- only as a must-write."""
    e = eff.effects
    if (
        e.writes
        and not e.barrier
        and not eff.may
        and isinstance(item, Instr)
        and len(e.writes) == 1
        and e.writes[0] is not None
        and not e.defs
        and item.opcode == "st"  # full-word stores only (both ISAs)
        and len(item.operands) == 2
        and isinstance(item.operands[0], R)
        and isinstance(item.operands[1], Mem)
    ):
        return e.writes[0], item.operands[0].n
    return None


class _Stores(_Problem):
    def _gen(self, i: int, item, eff: ItemEffects) -> int:
        pair = _store_pair(item, eff)
        return 0 if pair is None else self.bit(pair)

    def _kill(self, item, eff: ItemEffects) -> int:
        e = eff.effects
        if e.barrier:
            return _ALL
        kill = self.reg_mask(eff.kills) if eff.kills else 0
        # A summarized call's possible stores kill like real ones.
        for w in e.may_writes + e.writes:
            kill |= self.loc_mask(w)
        return kill

    @staticmethod
    def _reg_facts(pair) -> Tuple[int, int, int]:
        loc, reg = pair
        return reg, loc[0], loc[1]

    @staticmethod
    def _fact_locs(pair) -> tuple:
        return (pair[0],)

    def _aliases(self, write, loc) -> bool:
        return may_alias(write, loc, self.disjoint)


@dataclass
class AvailableStores:
    solution: Solution


def _roots_boundary(cfg: Cfg) -> List[Optional[int]]:
    """Entering from outside (entry, callers, branch tables): nothing is
    known to be available."""
    roots = set(cfg.roots)
    return [0 if block.bid in roots else None for block in cfg.blocks]


def available_stores(cfg: Cfg) -> AvailableStores:
    problem = _problem(cfg, ("stores",), lambda: _Stores(cfg))
    return AvailableStores(
        _fixpoint(cfg, problem, _roots_boundary(cfg), must=True)
    )


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


def _expr_gen(eff: ItemEffects, expr_ops: FrozenSet[str]):
    """The available-expression fact an item generates, or ``None``.
    The def killed any older fact mentioning dst, including this same
    key bound to a stale register."""
    gen = eff.expr
    if gen is None or eff.effects.barrier or eff.may \
            or gen[0][0] not in expr_ops:
        return None
    return gen


class _Exprs(_Problem):
    def __init__(self, cfg: Cfg, expr_ops: FrozenSet[str],
                 private: FrozenSet):
        self.expr_ops = expr_ops
        self.private = private
        super().__init__(cfg)

    def _gen(self, i: int, item, eff: ItemEffects) -> int:
        gen = _expr_gen(eff, self.expr_ops)
        return 0 if gen is None else self.bit(gen)

    def _kill(self, item, eff: ItemEffects) -> int:
        e = eff.effects
        if e.barrier or eff.may:
            # May-executed (skip-span) items are barriers for this
            # analysis: their defs might or might not have happened.
            return _ALL
        kill = self.reg_mask(eff.kills) if eff.kills else 0
        for w in e.writes + e.may_writes:
            kill |= self.loc_mask(w)
        return kill

    @staticmethod
    def _reg_facts(fact) -> FrozenSet[int]:
        return _fact_regs(fact[0]) | {fact[2]}

    @staticmethod
    def _fact_locs(fact) -> tuple:
        return fact[1]

    def _aliases(self, store, read) -> bool:
        # A write to a declared-private location (a spill scratch slot)
        # only kills facts reading that exact location; any other write
        # (must or may) kills every fact it may alias.
        if store in self.private:
            return store == read
        return may_alias(store, read, self.disjoint)


@dataclass
class AvailableExprs:
    solution: Solution
    expr_ops: FrozenSet[str]
    #: locations whose writes are known not to touch any fact's operands
    #: (the spill planner's compiler-private scratch slots); empty for
    #: every other client, keeping the analysis fully conservative.
    private: FrozenSet = frozenset()


    @property
    def exprs_out(self) -> Dict[int, ExprFact]:
        return self.solution.outs


def available_exprs(
    cfg: Cfg, expr_ops: FrozenSet[str],
    private: FrozenSet = frozenset(),
) -> AvailableExprs:
    problem = _problem(
        cfg, ("exprs", expr_ops, private),
        lambda: _Exprs(cfg, expr_ops, private),
    )
    return AvailableExprs(
        _fixpoint(cfg, problem, _roots_boundary(cfg), must=True),
        expr_ops, private,
    )


def walk_exprs(cfg: Cfg, result: AvailableExprs, block: BasicBlock):
    """Yield ``(index, item, bits_before)`` in forward block order.

    A client may rewrite the yielded item (through ``buffer.items`` and
    ``cfg.set_effects``) into one that leaves the same value in the
    same register, as global CSE does: the walk then steps the
    replacement and adds back the replaced item's own fact, reads
    included, so a later aliasing store still kills it."""
    problem = result.solution.problem
    x = result.solution.in_bits.get(block.bid) or 0
    items = cfg.buffer.items
    effects = cfg.item_effects
    for i in block.indices():
        item = items[i]
        if item is None:
            continue
        old = effects[i].expr
        yield i, item, x
        k, g = problem.step(i, item)
        x = (x & ~k) | g
        if items[i] is not item and old is not None \
                and old[0][0] in result.expr_ops:
            x |= problem.bit(old)


# ---------------------------------------------------------------------------
# Available copies (forward, must) -- register-equality facts.
# ---------------------------------------------------------------------------

#: Facts are ``(dst, src)`` pairs meaning "dst was copied from src and
#: neither changed since".


def _is_reg_move(item, eff: ItemEffects, move_op: str) -> bool:
    e = eff.effects
    return (
        isinstance(item, Instr)
        and item.opcode == move_op
        and len(e.defs) == 1
        and len(e.uses) == 1
        and not (e.reads or e.writes or e.sets_cc or e.barrier or e.flow)
    )


def _copy_pair(item, eff: ItemEffects, move_op: str) -> Optional[tuple]:
    """``(dst, src)`` of a must-executed move between two registers."""
    if not eff.may and _is_reg_move(item, eff, move_op):
        e = eff.effects
        dst = next(iter(e.defs))
        src = next(iter(e.uses))
        if dst != src:
            return dst, src
    return None


class _Copies(_Problem):
    def __init__(self, cfg: Cfg, move_op: str):
        self.move_op = move_op
        super().__init__(cfg)

    def _gen(self, i: int, item, eff: ItemEffects) -> int:
        pair = _copy_pair(item, eff, self.move_op)
        return 0 if pair is None else self.bit(pair)

    def _kill(self, item, eff: ItemEffects) -> int:
        if eff.effects.barrier:
            return _ALL
        return self.reg_mask(eff.kills) if eff.kills else 0

    @staticmethod
    def _reg_facts(pair) -> Tuple[int, int]:
        return pair


@dataclass
class AvailableCopies:
    solution: Solution
    move_op: str


def available_copies(cfg: Cfg, move_op: str = "lr") -> AvailableCopies:
    problem = _problem(
        cfg, ("copies", move_op), lambda: _Copies(cfg, move_op)
    )
    return AvailableCopies(
        _fixpoint(cfg, problem, _roots_boundary(cfg), must=True), move_op
    )


# ---------------------------------------------------------------------------
# Available values (forward, must) -- the -O2..-O4 value sweep.
# ---------------------------------------------------------------------------
#
# One problem over the union of the three forward universes above, each
# fact tagged with its family: ``(STORE, loc, reg)`` ("memory at ``loc``
# equals ``reg``"), ``(COPY, dst, src)`` and, when ``expr_ops`` is not
# empty, ``(EXPR, key, reads, dst)``.  Every family keeps its own gen
# rule and its own kills; they share one kill mask because all three
# drop the facts mentioning a redefined register, stores and
# expressions also those an aliasing write touches, and a barrier drops
# everything.  The one family-specific kill: a may-executed (skip-span)
# item drops every expression fact.  Restricted to one family, the
# solution is that family's own (``tests/test_dataflow_reference.py``).

STORE, COPY, EXPR = "store", "copy", "expr"


class _Values(_Problem):
    def __init__(self, cfg: Cfg, move_op: str, expr_ops: FrozenSet[str],
                 nregs: int):
        self.move_op = move_op
        self.expr_ops = expr_ops
        self.nregs = nregs
        super().__init__(cfg)

    def _seed(self) -> tuple:
        # Every copy fact a rewrite can create, so that the moves a
        # sweep writes never grow the index (and reset its masks).
        regs = range(self.nregs)
        return tuple((COPY, d, s) for d in regs for s in regs if d != s)

    def _gen(self, i: int, item, eff: ItemEffects) -> int:
        gen = 0
        pair = _store_pair(item, eff)
        if pair is not None:
            gen |= self.bit((STORE,) + pair)
        pair = _copy_pair(item, eff, self.move_op)
        if pair is not None:
            gen |= self.bit((COPY,) + pair)
        fact = _expr_gen(eff, self.expr_ops)
        if fact is not None:
            gen |= self.bit((EXPR,) + fact)
        return gen

    def _kill(self, item, eff: ItemEffects) -> int:
        e = eff.effects
        if e.barrier:
            return _ALL
        kill = self.reg_mask(eff.kills) if eff.kills else 0
        for w in e.writes + e.may_writes:
            kill |= self.loc_mask(w)
        if eff.may:
            kill |= self.group(0, EXPR)
        return kill

    @staticmethod
    def _reg_facts(fact) -> tuple:
        family = fact[0]
        if family == STORE:
            loc = fact[1]
            return fact[2], loc[0], loc[1]
        if family == COPY:
            return fact[1:]
        return _fact_regs(fact[1]) | {fact[3]}

    @staticmethod
    def _fact_locs(fact) -> tuple:
        family = fact[0]
        if family == STORE:
            return (fact[1],)
        return fact[2] if family == EXPR else ()

    def _aliases(self, write, loc) -> bool:
        return may_alias(write, loc, self.disjoint)

    # ---- what the facts say -----------------------------------------------

    # A fact's element 1 is a location (STORE), a register (COPY) or an
    # expression key (EXPR), and no two of those compare equal.

    def stored(self, x: int, loc) -> List[int]:
        """Registers equal to the word at ``loc``, in fact order."""
        held = x & self.group(1, loc)
        return [fact[2] for fact in self.decode_ordered(held)] if held \
            else []

    def computed(self, x: int, key) -> List[int]:
        """Registers holding the value of expression ``key``."""
        held = x & self.group(1, key)
        return [fact[3] for fact in self.decode_ordered(held)] if held \
            else []

    def copies(self, x: int) -> Dict[int, int]:
        """``dst -> src`` for every available copy.  A move kills every
        fact naming its destination before it generates its own, so
        each register is the destination of at most one fact and the
        pairs form a forest."""
        return {
            fact[1]: fact[2]
            for fact in self.decode_ordered(x & self.group(0, COPY))
        }

    def decode_ordered(self, x: int):
        facts = self.facts
        return [facts[k] for k in _bits_of(x)]


def copy_root(parent: Dict[int, int], reg: int) -> int:
    """The oldest register of ``reg``'s copy chain: ``reg`` was copied,
    through zero or more moves, from it, and none has changed since."""
    for _ in range(len(parent)):
        if reg not in parent:
            break
        reg = parent[reg]
    return reg


@dataclass
class AvailableValues:
    solution: Solution


def available_values(cfg: Cfg, move_op: str = "lr",
                     expr_ops: FrozenSet[str] = frozenset(),
                     nregs: int = 16) -> AvailableValues:
    problem = _problem(
        cfg, ("values", move_op, expr_ops, nregs),
        lambda: _Values(cfg, move_op, expr_ops, nregs),
    )
    return AvailableValues(
        _fixpoint(cfg, problem, _roots_boundary(cfg), must=True)
    )


def walk_values(cfg: Cfg, result: AvailableValues, block: BasicBlock):
    """Yield ``(index, item, bits_before)`` in forward block order.

    A client may rewrite the yielded item into one that leaves the same
    machine state, as every rewrite of the value sweep does.  The walk
    then steps the item now in place and adds back the replaced item's
    expression fact, reads included, so a later aliasing store still
    kills it."""
    problem = result.solution.problem
    x = result.solution.in_bits.get(block.bid) or 0
    items = cfg.buffer.items
    effects = cfg.item_effects
    expr_ops = problem.expr_ops
    for i in block.indices():
        item = items[i]
        if item is None:
            continue
        old = effects[i].expr
        yield i, item, x
        # Not hoisted: a fact first numbered here resets the masks.
        k, g = problem.masks[i] or problem.item(i)
        x = (x & ~k) | g
        if items[i] is not item and old is not None \
                and old[0][0] in expr_ops:
            x |= problem.bit((EXPR,) + old)
