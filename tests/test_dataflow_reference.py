"""Equivalence: the dataflow kernel against the reference solvers.

:mod:`repro.opt.dataflow` derives per-shape data once (each memoized
:class:`~repro.opt.cfg.ItemEffects` carries its kill set and its
available-expression fact), memoizes the registers an expression key
mentions, and starts every fact at the meet identity instead of
transferring each block once from it.  This file keeps the original
worklist (``reference_iterate``) and the original item steps, which
derive all of that again at every item, and requires the kernel to
reproduce their ``ins``/``outs`` exactly on every CFG a real
compile solves -- -O2 to -O4 on the codequality workloads and on random
programs, so summary-refined call sites, the spill planner's private
slots and the -O4 disjoint bases are all exercised -- and the SL05x
sanitizer to report the same diagnostics.
"""

from typing import Dict, Set

import pytest

from helpers import random_program, random_rich_program
from repro.analysis.gencode import sanitize_generated
from repro.bench.codequality import quality_workloads
from repro.core.codegen.emitter import Imm, Instr, Mem, R
from repro.core.effects import may_alias
from repro.machines.s370.spec import machine_description
from repro.opt import dataflow as D
from repro.pascal.compiler import compile_source

ENC = machine_description().encoder

LEVELS = (2, 3, 4)
SEEDS = range(10)


# ---- the reference kernel ---------------------------------------------------


def reference_iterate(cfg, *, forward, boundary, transfer, join):
    """The original worklist: every block is first transferred once
    from the meet identity, then visited in buffer order."""
    blocks = cfg.blocks
    n = len(blocks)
    ins: Dict[int, object] = {}
    outs: Dict[int, object] = {}
    order = list(range(n)) if forward else list(range(n - 1, -1, -1))
    for bid in order:
        ins[bid] = join(())
        outs[bid] = transfer(blocks[bid], ins[bid])
    pending = set(order)
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


def ref_step_live(live, eff, all_facts):
    e = eff.effects
    if e.barrier:
        return set(all_facts)
    if not eff.may:
        live -= e.defs
        if e.sets_cc:
            live.discard(D.CC)
    live |= e.uses
    if e.reads_cc:
        live.add(D.CC)
    return live


def ref_step_dead(fact, eff, disjoint=frozenset()):
    e = eff.effects
    if e.barrier:
        return frozenset()
    if e.reads:
        dead = set() if fact is None else set(fact)
        if fact is not None:
            for r in e.reads:
                if r is None:
                    dead.clear()
                    break
                dead = {d for d in dead if not may_alias(d, r, disjoint)}
        else:
            dead = set()
        fact = frozenset(dead)
    clobbered = e.defs | e.may_defs
    if fact is not None and clobbered:
        fact = frozenset(
            d for d in fact
            if d[0] not in clobbered and d[1] not in clobbered
        )
    if e.writes and not eff.may and fact is not None:
        adds = {
            w for w in e.writes
            if w is not None and w[1] == 0 and w[3] is not None
        }
        if adds:
            fact = fact | adds
    return fact


def ref_step_avail(pairs, i, item, eff, disjoint=frozenset()):
    e = eff.effects
    if e.barrier:
        return set()
    clobbered = e.defs | e.may_defs
    if clobbered:
        pairs = {
            (loc, reg) for (loc, reg) in pairs
            if reg not in clobbered
            and loc[0] not in clobbered and loc[1] not in clobbered
        }
    if e.may_writes:
        pairs = {
            (loc, reg) for (loc, reg) in pairs
            if not any(may_alias(w, loc, disjoint) for w in e.may_writes)
        }
    if e.writes:
        pairs = {
            (loc, reg) for (loc, reg) in pairs
            if not any(may_alias(w, loc, disjoint) for w in e.writes)
        }
        if (
            not eff.may
            and isinstance(item, Instr)
            and len(e.writes) == 1
            and e.writes[0] is not None
            and not e.defs
            and item.opcode == "st"
            and len(item.operands) == 2
            and isinstance(item.operands[0], R)
            and isinstance(item.operands[1], Mem)
        ):
            pairs = set(pairs)
            pairs.add((e.writes[0], item.operands[0].n))
    return pairs


def ref_canon_part(operand):
    if isinstance(operand, R):
        return ("r", operand.n)
    if isinstance(operand, Mem):
        return ("m", operand.base, operand.index, operand.disp)
    if isinstance(operand, Imm):
        return ("i", operand.value)
    return None


def ref_expr_key(item, eff, expr_ops):
    e = eff.effects
    if eff.may or not isinstance(item, Instr):
        return None
    if item.opcode not in expr_ops:
        return None
    if (
        e.barrier or e.flow or e.writes or e.may_writes or e.sets_cc
        or e.reads_cc or e.pair or e.save_restore or e.may_defs
    ):
        return None
    if len(e.defs) != 1:
        return None
    dst = next(iter(e.defs))
    if dst in e.uses:
        return None
    if any(r is None for r in e.reads):
        return None
    if not item.operands or not isinstance(item.operands[0], R) \
            or item.operands[0].n != dst:
        return None
    parts = tuple(ref_canon_part(o) for o in item.operands[1:])
    if any(p is None for p in parts):
        return None
    return (item.opcode,) + parts, tuple(e.reads), dst


def ref_fact_regs(key) -> Set[int]:
    regs: Set[int] = set()
    for part in key[1:]:
        if part[0] == "r":
            regs.add(part[1])
        elif part[0] == "m":
            if part[1]:
                regs.add(part[1])
            if part[2]:
                regs.add(part[2])
    return regs


def ref_step_exprs(facts, item, eff, expr_ops, private=frozenset(),
                   disjoint=frozenset()):
    e = eff.effects
    if e.barrier or eff.may:
        return set()
    clobbered = e.defs | e.may_defs
    if clobbered:
        facts = {
            f for f in facts
            if f[2] not in clobbered
            and not (ref_fact_regs(f[0]) & clobbered)
        }
    stores = e.writes + e.may_writes
    if stores:
        facts = {
            f for f in facts
            if not any(
                (w == r) if w in private else may_alias(w, r, disjoint)
                for w in stores for r in f[1]
            )
        }
    gen = ref_expr_key(item, eff, expr_ops)
    if gen is not None:
        facts = set(facts)
        facts.add(gen)
    return facts


def ref_step_copies(pairs, item, eff, move_op):
    e = eff.effects
    if e.barrier:
        return set()
    clobbered = e.defs | e.may_defs
    if clobbered:
        pairs = {
            (dst, src) for (dst, src) in pairs
            if dst not in clobbered and src not in clobbered
        }
    if not eff.may and D._is_reg_move(item, eff, move_op):
        dst = next(iter(e.defs))
        src = next(iter(e.uses))
        if dst != src:
            pairs = set(pairs)
            pairs.add((dst, src))
    return pairs


def _union(facts):
    merged: Set = set()
    for f in facts:
        merged |= f
    return frozenset(merged)


def _meet(facts):
    merged = None
    for f in facts:
        if f is None:
            continue
        merged = f if merged is None else (merged & f)
    return merged


def _forward(cfg, step):
    def transfer(block, fact):
        if fact is None:
            return None
        fact = set(fact)
        for i, item in cfg.block_items(block):
            fact = step(fact, i, item)
        return frozenset(fact)
    return transfer


def _roots_boundary(cfg, empty):
    roots = set(cfg.roots)
    return lambda block: empty if block.bid in roots else None


def ref_liveness(cfg, nregs=16):
    all_facts = frozenset(range(nregs)) | {D.CC}

    def boundary(block):
        if block.halts:
            return frozenset()
        if block.exits or not block.succs:
            return all_facts
        return frozenset()

    def transfer(block, live_out):
        live = set(live_out)
        for i in range(block.end - 1, block.start - 1, -1):
            if cfg.buffer.items[i] is not None:
                live = ref_step_live(live, cfg.item_effects[i], all_facts)
        return frozenset(live)

    return reference_iterate(cfg, forward=False, boundary=boundary,
                             transfer=transfer, join=_union)


def ref_reaching_defs(cfg, nregs=16, entry_defined=frozenset()):
    entry = frozenset((D.ENTRY, r) for r in entry_defined)
    roots = set(cfg.roots)

    def transfer(block, reach_in):
        defs = set(reach_in)
        for i, _ in cfg.block_items(block):
            defs = D._step_defs(defs, i, cfg.item_effects[i], nregs)
        return frozenset(defs)

    return reference_iterate(
        cfg, forward=True,
        boundary=lambda b: entry if b.bid in roots else frozenset(),
        transfer=transfer, join=_union,
    )


def ref_memory_deadness(cfg):
    def boundary(block):
        if block.halts:
            return None
        if block.exits or not block.succs:
            return frozenset()
        return None

    def transfer(block, fact):
        for i in range(block.end - 1, block.start - 1, -1):
            if cfg.buffer.items[i] is not None:
                fact = ref_step_dead(fact, cfg.item_effects[i],
                                     cfg.disjoint_bases)
        return fact

    return reference_iterate(cfg, forward=False, boundary=boundary,
                             transfer=transfer, join=_meet)


def ref_available_stores(cfg):
    return reference_iterate(
        cfg, forward=True, boundary=_roots_boundary(cfg, frozenset()),
        transfer=_forward(cfg, lambda f, i, item: ref_step_avail(
            f, i, item, cfg.item_effects[i], cfg.disjoint_bases)),
        join=_meet,
    )


def ref_available_copies(cfg, move_op="lr"):
    return reference_iterate(
        cfg, forward=True, boundary=_roots_boundary(cfg, frozenset()),
        transfer=_forward(cfg, lambda f, i, item: ref_step_copies(
            f, item, cfg.item_effects[i], move_op)),
        join=_meet,
    )


def ref_available_exprs(cfg, expr_ops, private=frozenset()):
    return reference_iterate(
        cfg, forward=True, boundary=_roots_boundary(cfg, frozenset()),
        transfer=_forward(cfg, lambda f, i, item: ref_step_exprs(
            f, item, cfg.item_effects[i], expr_ops, private,
            cfg.disjoint_bases)),
        join=_meet,
    )


#: kernel solver name -> its reference, same signature, ``(ins, outs)``.
REFERENCES = {
    "liveness": ref_liveness,
    "reaching_defs": ref_reaching_defs,
    "memory_deadness": ref_memory_deadness,
    "available_stores": ref_available_stores,
    "available_copies": ref_available_copies,
    "available_exprs": ref_available_exprs,
}


# ---- the comparison -----------------------------------------------------------


def _corpus():
    for name, source in quality_workloads():
        yield name, source
    for seed in SEEDS:
        yield f"random_program({seed})", random_program(seed)
        yield f"random_rich_program({seed})", random_rich_program(seed)


@pytest.fixture(scope="module")
def solves():
    """Compile the corpus at -O2..-O4 and run the SL05x sanitizer on
    every result, checking each solve against its reference on the CFG
    it was given.  Returns ``(mismatches, counts, sanitizer_diffs)``:
    ``counts`` tallies solves per solver plus how many ran with private
    slots and with disjoint bases."""
    mismatches = []
    counts: Dict[str, int] = {}
    diffs = []
    real = {name: getattr(D, name) for name in REFERENCES}

    def checked(name):
        def solve(cfg, *args, **kwargs):
            got = real[name](cfg, *args, **kwargs)
            want = REFERENCES[name](cfg, *args, **kwargs)
            counts[name] = counts.get(name, 0) + 1
            if kwargs.get("private"):
                counts["private"] = counts.get("private", 0) + 1
            if cfg.disjoint_bases:
                counts["disjoint"] = counts.get("disjoint", 0) + 1
            if (got.solution.ins, got.solution.outs) != want:
                mismatches.append((name, cfg.nblocks))
            return got
        return solve

    try:
        for name in REFERENCES:
            setattr(D, name, checked(name))
        for label, source in _corpus():
            for level in LEVELS:
                generated = compile_source(source, opt_level=level).generated
                got = sanitize_generated(generated, ENC)
                step_dead = D._step_dead
                D._step_dead = ref_step_dead
                try:
                    want = sanitize_generated(generated, ENC)
                finally:
                    D._step_dead = step_dead
                if [d.render() for d in got] != [d.render() for d in want]:
                    diffs.append((label, level))
    finally:
        for name, solver in real.items():
            setattr(D, name, solver)
    return mismatches, counts, diffs


def test_every_solve_matches_the_reference(solves):
    mismatches, counts, _ = solves
    assert set(REFERENCES) <= set(counts)
    assert counts["private"] > 0 and counts["disjoint"] > 0
    assert mismatches == []


def test_sanitizer_diagnostics_unchanged(solves):
    _, _, diffs = solves
    assert diffs == []


# ---- walks under rewrites ---------------------------------------------------
#
# The passes rewrite the item a walk has just yielded, and the walk then
# steps the rewritten item.  A solve never sees that order of events, so
# the solves above cannot catch a walk that steps a rewritten item with
# its old transfer.  The reference walks below step the set-based items
# with the effects current at each step, exactly as the set-based kernel
# did, and every yielded fact of the kernel's walk must equal theirs.


def ref_walk_backward(step):
    def walk(cfg, start, block, result):
        fact = start
        for i in range(block.end - 1, block.start - 1, -1):
            item = cfg.buffer.items[i]
            if item is None:
                continue
            yield i, item, fact
            fact = step(cfg, fact, i, item, result)
    return walk


def ref_walk_forward(step):
    def walk(cfg, start, block, result):
        fact = frozenset() if start is None else start
        for i in block.indices():
            item = cfg.buffer.items[i]
            if item is None:
                continue
            old = cfg.item_effects[i].expr
            yield i, item, fact
            fact = frozenset(step(cfg, set(fact), i, item, result))
            expr_ops = getattr(result, "expr_ops", None)
            if expr_ops is not None and cfg.buffer.items[i] is not item \
                    and old is not None and old[0][0] in expr_ops:
                fact = fact | {old}
    return walk


REF_WALKS = {
    "walk_live": ref_walk_backward(
        lambda cfg, f, i, item, res: frozenset(ref_step_live(
            set(f), cfg.item_effects[i], res.all_facts))),
    "walk_mem_dead": ref_walk_backward(
        lambda cfg, f, i, item, res: ref_step_dead(
            f, cfg.item_effects[i], cfg.disjoint_bases)),
    "walk_avail": ref_walk_forward(
        lambda cfg, f, i, item, res: ref_step_avail(
            f, i, item, cfg.item_effects[i], cfg.disjoint_bases)),
    "walk_copies": ref_walk_forward(
        lambda cfg, f, i, item, res: ref_step_copies(
            f, item, cfg.item_effects[i], res.move_op)),
    "walk_exprs": ref_walk_forward(
        lambda cfg, f, i, item, res: ref_step_exprs(
            f, cfg.buffer.items[i], cfg.item_effects[i], res.expr_ops,
            res.private, cfg.disjoint_bases)),
}

#: the solver whose reference solution each walk starts from.
WALK_SOLVER = {
    "walk_live": "liveness",
    "walk_mem_dead": "memory_deadness",
    "walk_avail": "available_stores",
    "walk_copies": "available_copies",
    "walk_exprs": "available_exprs",
}


@pytest.fixture(scope="module")
def walks():
    """Compile the corpus at -O2..-O4 and run the sanitizer, checking
    every walk a pass, the spill planner or the sanitizer makes item by
    item against its reference walk from the reference solution.
    Returns ``(mismatches, steps, rewritten)``: ``steps`` counts checked
    items per walk, ``rewritten`` the items a client rewrote mid-walk."""
    mismatches = []
    steps: Dict[str, int] = {}
    rewritten: Dict[str, int] = {}
    starts = {}  # id(solution) -> (solution, reference ins)
    real = {name: getattr(D, name) for name in REFERENCES}
    real_walks = {name: getattr(D, name) for name in REF_WALKS}

    def solved(name):
        def solve(cfg, *args, **kwargs):
            got = real[name](cfg, *args, **kwargs)
            ins, _ = REFERENCES[name](cfg, *args, **kwargs)
            starts[id(got.solution)] = (got.solution, ins)
            return got
        return solve

    def checked(name):
        def walk(cfg, result, block):
            ref_ins = starts[id(result.solution)][1]
            ref = REF_WALKS[name](cfg, ref_ins[block.bid], block, result)
            for i, item, bits in real_walks[name](cfg, result, block):
                want = next(ref)
                got = (i, item, result.solution.decode(bits))
                steps[name] = steps.get(name, 0) + 1
                if got != want:
                    mismatches.append((name, i))
                yield i, item, bits
                if cfg.buffer.items[i] is not item:
                    rewritten[name] = rewritten.get(name, 0) + 1
            if next(ref, None) is not None:
                mismatches.append((name, "length"))
        return walk

    try:
        for name in REFERENCES:
            setattr(D, name, solved(name))
        for name in REF_WALKS:
            setattr(D, name, checked(name))
        for label, source in _corpus():
            for level in LEVELS:
                generated = compile_source(source, opt_level=level).generated
                sanitize_generated(generated, ENC)
    finally:
        for name, solver in real.items():
            setattr(D, name, solver)
        for name, walk in real_walks.items():
            setattr(D, name, walk)
    return mismatches, steps, rewritten


def test_walks_match_the_reference_under_rewrites(walks):
    mismatches, steps, rewritten = walks
    assert set(steps) == set(REF_WALKS)
    # Each pass rewrote items mid-walk on this corpus (several hundred
    # per walk), so the rewritten steps are really exercised.
    assert set(rewritten) == set(REF_WALKS)
    assert mismatches == []
