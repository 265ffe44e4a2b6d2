"""Liveness-driven spill planning: the -O3 register allocation lane.

The LRU allocator (paper 4.1) evicts the least recently *stamped*
register when a class is exhausted.  That is a locality heuristic; the
optimal choice (Belady) is the value needed *farthest in the future*,
and a value with *no* remaining uses need not be stored at all.  Neither
fact is visible to the allocator mid-parse -- but it is fully determined
by the code the parse is about to emit.  So this module runs the
generator twice:

1. **Probe**: generate with an empty plan (plain LRU), collecting the
   allocator's :class:`~repro.core.codegen.registers.SpillEvent` log.
2. **Plan**: build the CFG of the probe output and solve *liveness* and
   *available expressions* over it.  For every single-register
   eviction, rank the probe's eviction candidates by next use -- the
   probe victim's next use is the first read of its scratch slot --
   preferring registers that are dead after the spill site, then the
   farthest-used.  When the probe victim stands, decide
   whether its store can be skipped: either the slot is never read
   (dead value) or the value is still available at the home it was
   loaded from (clean value; reloads are redirected there).
3. **Final**: the generation with the last plan.  That is the last
   probe, which already ran the plan against a copy of the frame; the
   real frame adopts the copy's state.  Every directive carries the
   probe's eviction ordinal, global-index guard, pool and victim; the
   allocator raises :class:`~repro.errors.DataflowError` on any
   mismatch, and the compile loses one optimization level, like any
   other planner failure (an unbuildable probe CFG included).

Soundness notes.  Evicting *any* unpinned busy register is correct (the
runtime patches the translation stack), so a victim override can never
produce wrong code -- it only moves the plan/probe agreement point, and
the guards catch divergence.  Store skipping relies on the probe being
replayed exactly: directives are only derived for the prefix of events
up to the first victim override, which the next probe iteration
validates.  Scratch slots are compiler-private memory: no instruction
outside the redirected reload set ever names their displacement, and
barriers (supervisor calls) are assumed not to address the spill area --
the one target-informed assumption in this module; the byte-identical
output gate in ``repro.bench.codequality`` backstops it.  Home
intactness for clean-value redirects, by contrast, is strictly
effect-conservative: any barrier, may-executed span, aliasing write or
base-register redefinition between the spill site and the last reload
disqualifies the skip.

At ``level >= 4`` the planner additionally (a) plans against the
interprocedural effect summaries of :mod:`repro.opt.summaries`, so the
intactness scans can cross refined call sites instead of stopping at
every call barrier, and (b) **rematerializes** values the
available-expression facts prove are cheap address arithmetic
(``LA``-formed constants and addresses): the spill store is skipped
outright and every reload re-executes the forming instruction
(``remat spilled operand``).  Constants rematerialize unconditionally;
register-dependent forms only when a same-block scan proves every input
register survives from spill site to last reload -- a value whose
inputs died is never rematerialized.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, List, Optional, Tuple

from repro.core.effects import may_alias
from repro.core.codegen.registers import SpillDirective, SpillEvent
from repro.errors import DataflowError
from repro.opt import dataflow as D
from repro.opt import summaries as S
from repro.opt.cfg import Cfg, build_cfg

#: Probe/plan rounds before accepting the plan as-is.  Each round fixes
#: at most one victim override, and skip-only plans converge in two.
_MAX_ITERATIONS = 5


def _live_after(cfg: Cfg, live, site: int):
    """The live-after bits at one item index, or ``None`` off-block."""
    bid = cfg.block_of.get(site)
    if bid is None:
        return None
    for i, _item, after in D.walk_live(cfg, live, cfg.blocks[bid]):
        if i == site:
            return after
    return None


def _exprs_before(cfg: Cfg, exprs, site: int, victim: int):
    """Available-expression facts held in ``victim`` just before one
    item index, or ``None`` off-block."""
    bid = cfg.block_of.get(site)
    if bid is None:
        return None
    facts = exprs.solution.problem
    for i, _item, before in D.walk_exprs(cfg, exprs, cfg.blocks[bid]):
        if i == site:
            return facts.decode(before & facts.group(2, victim))
    return None


def _slot_reads(cfg: Cfg, site: int, scratch) -> List[int]:
    """Every item index after ``site`` that reloads the scratch slot.

    Exact location match, deliberately: the slot's displacement is
    allocated fresh for this one value and only the runtime's reload
    emission ever names it, so the probe's reloads are exactly the reads
    at that location (private-slot assumption, module docstring).
    """
    disp, base = scratch
    loc = (base, 0, disp, 4)
    reads: List[int] = []
    for j in range(site + 1, len(cfg.buffer.items)):
        if any(r == loc for r in cfg.item_effects[j].effects.reads):
            reads.append(j)
    return reads


def _clean_home(
    cfg: Cfg, exprs, event: SpillEvent, reads: List[int], private
) -> Optional[Tuple[int, int]]:
    """A ``(disp, base)`` location that already holds the victim's value
    and provably still does at every reload, or ``None``.

    The candidate comes from the available-expressions facts at the
    spill site: a fact ``(("l", ("m", base, 0, disp)), _, victim)`` says
    the victim was loaded full-word from that address and neither the
    address registers nor the location changed since.  ``private`` is
    the set of compiler-private slot locations (every scratch slot and
    CSE home in the probe's spill log): writes to those cannot touch a
    program-visible home, so they pass the intactness scan that any
    other aliasing write fails.
    """
    site = event.store_index
    before = _exprs_before(cfg, exprs, site, event.victim)
    if before is None:
        return None
    home = None
    for key, _reads, _dst in before:
        if len(key) != 2 or key[0] != "l":
            continue
        part = key[1]
        if part[0] != "m" or part[2]:  # memory part, no index register
            continue
        home = (part[3], part[1])  # (disp, base)
        break
    if home is None:
        return None
    bid = cfg.block_of.get(site)
    if bid is None or any(cfg.block_of.get(j) != bid for j in reads):
        return None  # a reload outside the site's block: path unknown
    alt_loc = (home[1], 0, home[0], 4)
    for j in range(site + 1, max(reads) + 1):
        eff = cfg.item_effects[j]
        e = eff.effects
        if e.barrier or eff.may:
            return None  # a barrier may rewrite the home (e.g. READ)
        for w in e.writes + e.may_writes:
            if w == alt_loc:
                return None  # the home itself is rewritten
            if w in private:
                continue  # another private slot: disjoint by layout
            if may_alias(w, alt_loc, cfg.disjoint_bases):
                return None
        if home[1] in e.defs or home[1] in e.may_defs:
            return None
    return home


#: Opcodes the planner may re-execute at a reload site: pure address
#: arithmetic -- no memory access, no CC, cannot trap -- so recomputing
#: one is always behavior-preserving when its input registers are.
_REMAT_OPS = frozenset({"la"})


def _remat_form(
    cfg: Cfg, exprs, event: SpillEvent, reads: List[int]
) -> Optional[Tuple[str, Tuple[int, int, int]]]:
    """An ``(opcode, (disp, index, base))`` recomputation of the victim
    valid at every reload, or ``None``.

    The candidate comes from the available-expression facts at the spill
    site: a ``("la", ("m", base, index, disp))`` fact for the victim
    says the value *is* that address computation.  A constant form (no
    base/index register) is recomputable anywhere; a register-dependent
    form additionally needs every input register untouched from the
    spill site through the last reload, proven by a same-block scan --
    never rematerialize a value whose inputs died.
    """
    site = event.store_index
    before = _exprs_before(cfg, exprs, site, event.victim)
    if before is None:
        return None
    candidates = sorted(
        key for key, _reads, _dst in before
        if len(key) == 2 and key[0] in _REMAT_OPS and key[1][0] == "m"
    )
    if not candidates:
        return None
    # Prefer a constant form (recomputable anywhere); among equals the
    # sorted order keeps the choice independent of set iteration.
    key = min(
        candidates, key=lambda k: (bool(D._fact_regs(k)), k)
    )
    part = key[1]
    form = (key[0], (part[3], part[2], part[1]))  # (disp, index, base)
    regs = D._fact_regs(key)
    if not regs:
        return form  # pure constant: valid at any later point
    bid = cfg.block_of.get(site)
    if bid is None or any(cfg.block_of.get(j) != bid for j in reads):
        return None  # a reload outside the site's block: path unknown
    for j in range(site + 1, max(reads) + 1):
        eff = cfg.item_effects[j]
        e = eff.effects
        if e.barrier or eff.may:
            return None
        if regs & (e.defs | e.may_defs):
            return None  # an input register was redefined (or may be)
    return form


def _derive(
    cfg: Cfg, live, exprs, event: SpillEvent, private,
    remat_ok: bool = False,
) -> Tuple[SpillDirective, bool]:
    """One directive for an unplanned probe eviction.

    Returns ``(directive, stop)``; ``stop`` is True when the directive
    overrides the probe's victim -- everything after that point replays
    differently, so planning must resume from the next probe.
    """
    keep = SpillDirective(
        ordinal=event.ordinal,
        guard_index=event.guard_index,
        pool=event.pool,
        victim=event.victim,
    )
    site = event.store_index
    if (
        event.cse is not None  # CSE homes must be written: never skip
        or site is None
        or event.scratch is None
        or site in cfg.skip_spans
        or cfg.block_of.get(site) not in cfg.reachable
    ):
        return keep, False
    # ---- victim choice (a pair half is its own only candidate):
    # prefer a candidate that liveness proves dead after the spill site
    # over the LRU-ranked victim.  Its store and every reload vanish
    # with it.  Anything fancier (full Belady ranking) measurably churns
    # the downstream passes without reducing the eviction count, so the
    # override stays exactly as narrow as the liveness facts.
    after = _live_after(cfg, live, site)
    if after is not None and after & D.reg_bits((event.victim,)):
        for number, _stamp in event.candidates:  # LRU order
            if number != event.victim and not after & D.reg_bits((number,)):
                override = SpillDirective(
                    ordinal=event.ordinal,
                    guard_index=event.guard_index,
                    pool=event.pool,
                    victim=number,
                )
                return override, True
    # ---- store skipping: dead value, then clean value.
    reads = _slot_reads(cfg, site, event.scratch)
    if not reads:
        skip = SpillDirective(
            ordinal=event.ordinal,
            guard_index=event.guard_index,
            pool=event.pool,
            victim=event.victim,
            skip_store=True,
        )
        return skip, False
    home = _clean_home(cfg, exprs, event, reads, private)
    if home is not None:
        skip = SpillDirective(
            ordinal=event.ordinal,
            guard_index=event.guard_index,
            pool=event.pool,
            victim=event.victim,
            skip_store=True,
            alt_disp=home[0],
            alt_base=home[1],
        )
        return skip, False
    remat = _remat_form(cfg, exprs, event, reads) if remat_ok else None
    if remat is not None:
        skip = SpillDirective(
            ordinal=event.ordinal,
            guard_index=event.guard_index,
            pool=event.pool,
            victim=event.victim,
            skip_store=True,
            remat=remat,
        )
        return skip, False
    return keep, False


def _probe_cfg(probe, encoder, level: int) -> Cfg:
    """The planning CFG; at -O4 with interprocedural summaries applied
    so the intactness scans can see through refined call sites."""
    if level < 4:
        return build_cfg(probe.buffer, encoder)
    cfg = build_cfg(
        probe.buffer, encoder, disjoint_bases=encoder.disjoint_base_pairs()
    )
    if cfg.ok:
        S.refine_call_sites(cfg, encoder)
    return cfg


def build_plan(
    probe, encoder, current_plan: Tuple[SpillDirective, ...],
    nregs: int = 16, level: int = 3,
) -> Tuple[SpillDirective, ...]:
    """Derive the next spill plan from a probe generation.

    ``current_plan`` is the plan the probe ran with.  The allocator
    applied each of its directives (it raises on any mismatch), so they
    are carried verbatim: re-deriving one against this probe would
    misread its own effect (a skipped store has no slot reads left).
    Raises :class:`~repro.errors.DataflowError` when the probe's CFG
    cannot be built.  ``level >= 4`` plans against summary-refined call
    sites and may rematerialize.
    """
    cfg = _probe_cfg(probe, encoder, level)
    if not cfg.ok:
        raise DataflowError(
            f"spill plan: CFG unavailable ({cfg.reason})",
            analysis="spillplan",
        )
    log = probe.stats["spill_log"]
    #: every compiler-private slot location the probe spilled through.
    private = frozenset(
        (e.scratch[1], 0, e.scratch[0], 4)
        for e in log
        if e.scratch is not None
    )
    live = D.liveness(cfg, nregs=nregs)
    expr_ops = (
        encoder.expression_ops() if encoder is not None else frozenset()
    )
    exprs = D.available_exprs(cfg, expr_ops, private=private)
    directives = list(current_plan)
    for event in log[len(current_plan):]:
        directive, stop = _derive(
            cfg, live, exprs, event, private, remat_ok=level >= 4,
        )
        directives.append(directive)
        if stop:
            break
    return tuple(directives)


def generate_with_liveness(
    build, tokens, frame=None, guards=None, nregs: int = 16,
    level: int = 3,
):
    """Generate code with the liveness-planned allocator.

    Returns ``(generated, info)`` where ``info`` is the JSON-safe
    ``stats["regalloc"]`` payload for the compiler.  A plan that cannot
    be built or fails to replay raises
    :class:`~repro.errors.DataflowError`, and the compiler drops one
    optimization level.  ``level >= 4`` additionally plans against
    interprocedural summaries and rematerializes cheap spilled values
    (``remat_count``).
    """
    gen = build.code_generator
    encoder = build.machine.encoder
    info: Dict[str, Any] = {
        "strategy": "liveness",
        "spill_events": 0,
        "spill_stores_emitted": 0,
        "spill_stores_skipped": 0,
        "planned_evictions": 0,
        "plan_iterations": 0,
        "iterations": 0,
        "remat_count": 0,
        "degraded_reason": "",  # always empty; benchmark/worker.py reads it
    }
    if not isinstance(tokens, list):
        tokens = list(tokens)  # probed repeatedly
    probe_frame = copy.deepcopy(frame)
    probe = gen.generate(tokens, frame=probe_frame, guards=guards)
    if not probe.stats["spill_log"]:
        # No spills: nothing to plan, and the deep-copied frame was
        # never consulted for scratch slots, so the probe IS the result.
        return probe, info
    plan: Tuple[SpillDirective, ...] = ()
    for iteration in range(_MAX_ITERATIONS):
        info["plan_iterations"] = iteration + 1
        new_plan = build_plan(probe, encoder, plan, nregs=nregs, level=level)
        if new_plan == plan:
            break
        plan = new_plan
        probe_frame = copy.deepcopy(frame)
        probe = gen.generate(
            tokens, frame=probe_frame, guards=guards, spill_plan=plan,
        )
    # Generation is deterministic: the last probe, with this plan and a
    # copy of this frame, is the final generation.
    if frame is not None:
        vars(frame).update(vars(probe_frame))
    log = probe.stats["spill_log"]
    info["spill_events"] = len(log)
    info["planned_evictions"] = sum(1 for e in log if e.planned)
    info["spill_stores_skipped"] = sum(1 for e in log if e.skipped)
    info["spill_stores_emitted"] = sum(1 for e in log if not e.skipped)
    info["remat_count"] = sum(1 for e in log if e.remat)
    info["iterations"] = info["plan_iterations"]
    return probe, info
