"""Unit tests: the CFG builder and the dataflow framework (repro.opt).

Structure (leaders, edges, skip spans, roots, degradation), each solver
(liveness, reaching defs, def-use chains, memory deadness, available
stores, available copies), the may-def modelling of branch index
registers, the worklist's agreement with a round-robin reference solver
and its transfer budget, the cross-rebuild item-effects memo, and the
effect-table coverage contract of both encoders.
"""

import pytest

from repro.bench import workloads as W
from repro.bench.codequality import quality_workloads
from repro.core.codegen.emitter import (
    Imm,
    AConSite,
    BranchSite,
    CodeBuffer,
    DataBlock,
    Instr,
    LabelMark,
    Mem,
    R,
    SkipSite,
    StmtMark,
)
from repro.core.effects import BARRIER_EFFECTS, InstrEffects
from repro.machines.s370.spec import machine_description
from repro.opt import cfg as CFG
from repro.opt import dataflow as DF
from repro.opt.cfg import build_cfg, compute_skip_spans, item_effects, to_dot
from repro.opt.dataflow import (
    CC,
    ENTRY,
    available_copies,
    available_exprs,
    available_stores,
    def_use_chains,
    liveness,
    memory_deadness,
    reaching_defs,
    walk_live,
    walk_mem_dead,
)
from repro.pascal.compiler import compile_source

ENC = machine_description().encoder

MEM = Mem(100, 0, 13)
OTHER = Mem(200, 0, 13)


def walk_forward(cfg, result, block):
    """``(index, item, bits_before)`` of a forward per-family solve."""
    return DF._walk_forward(cfg, result.solution, block)


def walked(walk, cfg, result, block):
    """``{index: facts}`` of one walk, its bits decoded."""
    return {
        i: result.solution.decode(bits)
        for i, _, bits in walk(cfg, result, block)
    }


def buf(items, deaths=()):
    buffer = CodeBuffer()
    buffer.items = list(items)
    buffer.deaths = list(deaths)
    return buffer


class TestCfgStructure:
    def test_straight_line_is_one_block(self):
        cfg = build_cfg(buf([
            Instr("la", (R(1), Mem(5, 0, 0))),
            Instr("lr", (R(2), R(1))),
        ]), ENC)
        assert cfg.ok
        assert cfg.nblocks == 1
        assert cfg.blocks[0].exits  # falls off the end

    def test_conditional_branch_makes_diamond(self):
        cfg = build_cfg(buf([
            Instr("ltr", (R(1), R(1))),
            BranchSite(cond=8, label=1, index_reg=0),
            Instr("lr", (R(2), R(1))),
            LabelMark(1),
            Instr("ar", (R(2), R(2))),
        ]), ENC)
        assert cfg.ok
        assert cfg.nblocks == 3
        assert sorted(cfg.blocks[0].succs) == [1, 2]
        assert cfg.blocks[1].succs == [2]
        assert cfg.label_block[1] == 2
        assert cfg.reachable == frozenset({0, 1, 2})

    def test_unconditional_branch_has_single_successor(self):
        cfg = build_cfg(buf([
            BranchSite(cond=15, label=3, index_reg=0),
            Instr("lr", (R(2), R(1))),  # unreachable
            LabelMark(3),
        ]), ENC)
        assert cfg.ok
        assert cfg.blocks[0].succs == [2]
        assert 1 not in cfg.reachable

    def test_halt_block_has_no_successors(self):
        from repro.core.codegen.emitter import Imm

        cfg = build_cfg(buf([
            Instr("svc", (Imm(0),)),
            Instr("lr", (R(2), R(1))),
        ]), ENC)
        assert cfg.blocks[0].halts
        assert not cfg.blocks[0].succs

    def test_call_target_is_a_root(self):
        site = BranchSite(cond=15, label=9, index_reg=0, link_reg=14)
        cfg = build_cfg(buf([
            site,
            LabelMark(9),
            Instr("ar", (R(1), R(1))),
        ]), ENC)
        assert cfg.ok
        assert cfg.label_block[9] in cfg.roots

    def test_address_taken_label_is_a_root(self):
        cfg = build_cfg(buf([
            AConSite(label=4),
            LabelMark(4),
            Instr("ar", (R(1), R(1))),
        ]), ENC)
        assert cfg.label_block[4] in cfg.roots

    def test_branch_to_undefined_label_degrades(self):
        cfg = build_cfg(buf([BranchSite(cond=15, label=77, index_reg=0)]),
                        ENC)
        assert not cfg.ok
        assert "L77" in cfg.reason

    def test_label_inside_skip_span_degrades(self):
        cfg = build_cfg(buf([
            SkipSite(cond=8, halfwords=2, index_reg=0),
            LabelMark(5),
            Instr("ar", (R(1), R(1))),
        ]), ENC)
        assert not cfg.ok
        assert "skip span" in cfg.reason

    def test_skip_span_items_are_may_executed(self):
        items = [
            SkipSite(cond=8, halfwords=2, index_reg=0),
            Instr("la", (R(3), Mem(1, 0, 0))),  # 4 bytes: inside the span
            Instr("la", (R(4), Mem(2, 0, 0))),  # outside
        ]
        spans = compute_skip_spans(items, ENC)
        assert spans == {1}
        cfg = build_cfg(buf(items), ENC)
        assert cfg.ok
        assert cfg.item_effects[1].may
        assert not cfg.item_effects[2].may

    def test_data_block_is_a_barrier_item(self):
        cfg = build_cfg(buf([DataBlock(data=b"\0\0\0\0")]), ENC)
        assert cfg.item_effects[0].effects.barrier


class TestLiveness:
    def test_use_keeps_register_live_backwards(self):
        cfg = build_cfg(buf([
            Instr("la", (R(3), Mem(5, 0, 0))),
            Instr("lr", (R(4), R(3))),
        ]), ENC)
        live = liveness(cfg)
        facts = walked(walk_live, cfg, live, cfg.blocks[0])
        # Reverse order: the lr comes first.
        assert list(facts) == [1, 0]
        after_lr, after_la = facts[1], facts[0]
        assert 3 in after_la   # the lr still needs r3
        assert 4 in after_lr   # exit boundary: everything live

    def test_halt_kills_everything(self):
        from repro.core.codegen.emitter import Imm

        cfg = build_cfg(buf([
            Instr("la", (R(3), Mem(5, 0, 0))),
            Instr("svc", (Imm(0),)),
        ]), ENC)
        live = liveness(cfg)
        facts = walked(walk_live, cfg, live, cfg.blocks[0])
        assert facts[0] == frozenset()  # nothing live after la

    def test_branch_index_reg_is_not_a_use(self):
        # The long form *loads* the index register before branching
        # through it; its old value must not be kept alive.
        from repro.core.codegen.emitter import Imm

        cfg = build_cfg(buf([
            Instr("lr", (R(5), R(4))),
            Instr("ltr", (R(4), R(4))),
            BranchSite(cond=8, label=1, index_reg=5),
            LabelMark(1),
            Instr("svc", (Imm(0),)),
        ]), ENC)
        live = liveness(cfg)
        after = walked(walk_live, cfg, live, cfg.blocks[0])
        assert 5 not in after[0]

    def test_cc_pseudo_register(self):
        cfg = build_cfg(buf([
            Instr("ltr", (R(1), R(1))),
            BranchSite(cond=8, label=1, index_reg=0),
            LabelMark(1),
        ]), ENC)
        live = liveness(cfg)
        after = walked(walk_live, cfg, live, cfg.blocks[0])
        assert CC in after[0]  # the branch still reads the CC


class TestReachingDefsAndChains:
    def test_def_reaches_use(self):
        cfg = build_cfg(buf([
            Instr("la", (R(3), Mem(5, 0, 0))),
            Instr("lr", (R(4), R(3))),
        ]), ENC)
        reaching = reaching_defs(cfg, entry_defined=frozenset({13}))
        chains = def_use_chains(cfg, reaching)
        assert chains.defs_of_use[(1, 3)] == frozenset({(0, 3)})
        assert (1, 3) in chains.uses_of_def[(0, 3)]

    def test_entry_pseudo_def(self):
        cfg = build_cfg(buf([Instr("lr", (R(4), R(13)))]), ENC)
        reaching = reaching_defs(cfg, entry_defined=frozenset({13}))
        chains = def_use_chains(cfg, reaching)
        assert chains.defs_of_use[(0, 13)] == frozenset({(ENTRY, 13)})

    def test_undefined_use_has_no_sites(self):
        cfg = build_cfg(buf([Instr("lr", (R(4), R(9)))]), ENC)
        reaching = reaching_defs(cfg, entry_defined=frozenset({13}))
        chains = def_use_chains(cfg, reaching)
        assert chains.defs_of_use[(0, 9)] == frozenset()

    def test_join_merges_both_defs(self):
        cfg = build_cfg(buf([
            Instr("ltr", (R(1), R(1))),
            BranchSite(cond=8, label=1, index_reg=0),
            Instr("la", (R(3), Mem(1, 0, 0))),
            LabelMark(1),
            Instr("la", (R(3), Mem(2, 0, 0))),
            LabelMark(2),
            Instr("lr", (R(4), R(3))),
        ]), ENC)
        # Only one def on the branch-taken path reaches the lr?  No:
        # the fall-through path redefines r3, the taken path jumps past
        # the first la straight to the second.  Both defs are la's.
        reaching = reaching_defs(cfg)
        chains = def_use_chains(cfg, reaching)
        sites = chains.defs_of_use[(6, 3)]
        assert sites == frozenset({(4, 3)})


class TestMemoryDeadness:
    def test_store_before_halt_is_dead(self):
        from repro.core.codegen.emitter import Imm

        cfg = build_cfg(buf([
            Instr("st", (R(3), MEM)),
            Instr("svc", (Imm(0),)),
        ]), ENC)
        dead = memory_deadness(cfg)
        facts = walked(walk_mem_dead, cfg, dead, cfg.blocks[0])
        assert facts[0] is None  # TOP: everything is dead after a halt

    def test_read_revives_location(self):
        from repro.core.codegen.emitter import Imm

        cfg = build_cfg(buf([
            Instr("st", (R(3), MEM)),
            Instr("l", (R(4), MEM)),
            Instr("svc", (Imm(0),)),
        ]), ENC)
        dead = memory_deadness(cfg)
        facts = walked(walk_mem_dead, cfg, dead, cfg.blocks[0])
        loc = cfg.item_effects[0].effects.writes[0]
        assert facts[0] is not None and loc not in facts[0]

    def test_overwrite_makes_upstream_store_dead(self):
        cfg = build_cfg(buf([
            Instr("st", (R(3), MEM)),
            Instr("st", (R(4), MEM)),
        ]), ENC)
        dead = memory_deadness(cfg)
        facts = walked(walk_mem_dead, cfg, dead, cfg.blocks[0])
        loc = cfg.item_effects[0].effects.writes[0]
        assert facts[0] is not None and loc in facts[0]

    def test_exit_boundary_keeps_everything_observable(self):
        cfg = build_cfg(buf([Instr("st", (R(3), MEM))]), ENC)
        dead = memory_deadness(cfg)
        facts = walked(walk_mem_dead, cfg, dead, cfg.blocks[0])
        assert facts[0] == frozenset()  # nothing provably dead


class TestAvailableFacts:
    def test_store_makes_pair_available_across_blocks(self):
        cfg = build_cfg(buf([
            Instr("st", (R(3), MEM)),
            BranchSite(cond=15, label=1, index_reg=0),
            LabelMark(1),
            Instr("l", (R(4), MEM)),
        ]), ENC)
        avail = available_stores(cfg)
        block = cfg.blocks[cfg.label_block[1]]
        before = walked(walk_forward, cfg, avail, block)
        loc = cfg.item_effects[0].effects.writes[0]
        load_index = block.end - 1
        assert (loc, 3) in before[load_index]

    def test_redefining_register_kills_pair(self):
        cfg = build_cfg(buf([
            Instr("st", (R(3), MEM)),
            Instr("la", (R(3), Mem(9, 0, 0))),
            Instr("l", (R(4), MEM)),
        ]), ENC)
        avail = available_stores(cfg)
        before = walked(walk_forward, cfg, avail, cfg.blocks[0])
        loc = cfg.item_effects[0].effects.writes[0]
        assert (loc, 3) not in before[2]

    def test_branch_index_reg_kills_availability(self):
        # The long branch form may clobber its index register, so a
        # (loc, reg) pair with reg == index_reg cannot survive the
        # branch even though liveness ignores the may-def.
        cfg = build_cfg(buf([
            Instr("st", (R(5), MEM)),
            Instr("ltr", (R(1), R(1))),
            BranchSite(cond=8, label=1, index_reg=5),
            LabelMark(1),
            Instr("l", (R(6), MEM)),
        ]), ENC)
        avail = available_stores(cfg)
        block = cfg.blocks[cfg.label_block[1]]
        before = walked(walk_forward, cfg, avail, block)
        loc = cfg.item_effects[0].effects.writes[0]
        load_index = block.end - 1
        assert (loc, 5) not in before[load_index]

    def test_copy_fact_flows_and_dies(self):
        cfg = build_cfg(buf([
            Instr("lr", (R(5), R(4))),
            Instr("ar", (R(6), R(5))),
            Instr("la", (R(4), Mem(9, 0, 0))),
            Instr("ar", (R(7), R(5))),
        ]), ENC)
        copies = available_copies(cfg)
        before = walked(walk_forward, cfg, copies, cfg.blocks[0])
        assert (5, 4) in before[1]
        assert (5, 4) not in before[3]  # the la killed the source


class TestKeptCfg:
    """A CFG keeps each analysis' state across rewrites made through
    ``Cfg.set_effects``; a solve on it must equal one on a fresh CFG."""

    def test_rewrite_adding_a_new_fact(self):
        buffer = buf([
            Instr("lr", (R(5), R(4))),
            Instr("ar", (R(6), R(5))),
            Instr("l", (R(7), MEM)),
            Instr("la", (R(3), Mem(9, 0, 0))),
            Instr("ar", (R(8), R(7))),
        ])
        cfg = build_cfg(buffer, ENC)
        before = available_copies(cfg)
        assert before.solution.outs[0] == frozenset({(5, 4)})
        # A copy pair no item generated when the index was built; the
        # ``la`` after it must kill it through a register mask derived
        # before the pair existed.
        buffer.items[2] = Instr("lr", (R(7), R(3)))
        cfg.set_effects(2, item_effects(buffer.items[2], ENC, False))
        kept = available_copies(cfg)
        fresh = available_copies(build_cfg(buffer, ENC))
        assert kept.solution.outs == fresh.solution.outs
        assert kept.solution.outs[0] == frozenset({(5, 4)})
        assert walked(walk_forward, cfg, kept, cfg.blocks[0])[3] \
            == frozenset({(5, 4), (7, 3)})


def _round_robin(cfg, problem, boundary, must):
    """The naive reference solver over the same block summaries: sweep
    every block until nothing changes, starting from each block
    transferred once from the meet identity (:func:`DF._fixpoint`
    starts untransferred)."""
    def meet(facts):
        if not must:
            merged = 0
            for f in facts:
                merged |= f
            return merged
        merged = None
        for f in facts:
            if f is not None:
                merged = f if merged is None else merged & f
        return merged

    def transfer(bid, fact):
        kill, gen, top = problem.summary(bid)
        return top if fact is None else (fact & ~kill) | gen

    identity = None if must else 0
    ins = {b.bid: identity for b in cfg.blocks}
    outs = {b.bid: transfer(b.bid, identity) for b in cfg.blocks}
    changed = True
    while changed:
        changed = False
        for block in cfg.blocks:
            edges = block.preds if problem.forward else block.succs
            new_in = meet([outs[p] for p in edges] + [boundary[block.bid]])
            new_out = transfer(block.bid, new_in)
            if new_in != ins[block.bid] or new_out != outs[block.bid]:
                changed = True
            ins[block.bid], outs[block.bid] = new_in, new_out
    return ins, outs


#: kernel problem class -> the solver that instantiates it.
SOLVER_OF = {
    DF._Live: "liveness",
    DF._Defs: "reaching_defs",
    DF._Dead: "memory_deadness",
    DF._Stores: "available_stores",
    DF._Copies: "available_copies",
    DF._Exprs: "available_exprs",
    DF._Values: "available_values",
}


@pytest.fixture(scope="module")
def worklist_runs():
    """Every solve of every bench workload at -O2 and -O4 (plus
    reaching defs, memory deadness and the per-family stores and copies
    over each final buffer), each checked against the reference solver;
    returns ``(mismatches, solvers, transfers, blocks)``, a transfer
    being one block-summary application."""
    real_fixpoint = DF._fixpoint
    mismatches, solvers = [], set()
    counts = {"transfers": 0, "blocks": 0}

    def checked(cfg, problem, boundary, must):
        summary = problem.summary

        def counted(bid):
            counts["transfers"] += 1
            return summary(bid)

        solver = SOLVER_OF[type(problem)]
        solvers.add(solver)
        counts["blocks"] += cfg.nblocks
        problem.summary = counted
        try:
            got = real_fixpoint(cfg, problem, boundary, must)
        finally:
            del problem.summary
        want = _round_robin(cfg, problem, boundary, must)
        if (got.in_bits, got.out_bits) != want:
            mismatches.append(solver)
        return got

    DF._fixpoint = checked
    try:
        for _, source in quality_workloads():
            for level in (2, 4):
                compiled = compile_source(source, opt_level=level)
                final = build_cfg(compiled.generated.buffer, ENC)
                reaching_defs(final)
                memory_deadness(final)
                available_stores(final)
                available_copies(final)
    finally:
        DF._fixpoint = real_fixpoint
    return mismatches, solvers, counts["transfers"], counts["blocks"]


class TestWorklist:
    def test_matches_round_robin_reference(self, worklist_runs):
        mismatches, solvers, _, _ = worklist_runs
        assert solvers == {
            "liveness", "reaching_defs", "memory_deadness",
            "available_stores", "available_copies", "available_exprs",
            "available_values",
        }
        assert mismatches == []

    def test_transfer_budget(self, worklist_runs):
        """Visiting blocks in order from untransferred identity facts
        settles most problems in one sweep: at most 1.25 transfers per
        block (1.05 here; first transferring every block once from the
        identity took 2.05, a last-block-first worklist 3.86 on the
        opt_stress set)."""
        _, _, transfers, blocks = worklist_runs
        assert blocks > 1000
        assert transfers <= 1.25 * blocks


def _toy_instrs():
    from repro.ir.linear import IFToken as T
    from repro.machines.toy import build_toy
    from repro.machines.toy.machine import R_DATA

    tokens = []
    for i in range(8):
        tokens += [
            T("assign"), T("fullword"), T("dsp", 4 * i), T("r", R_DATA),
            T("iadd"), T("pos_constant"), T("val", i),
            T("pos_constant"), T("val", 30),
        ]
    tokens += [
        T("write_int"), T("imax"),
        T("pos_constant"), T("val", 9), T("pos_constant"), T("val", 4),
        T("program_end"),
    ]
    code = build_toy().code_generator.generate(tokens)
    return [it for it in code.buffer.items if isinstance(it, Instr)]


class TestEffectsMemo:
    """``item_effects`` memoizes per ``(encoder, opcode, operands)``:
    the memo must be invisible."""

    @pytest.fixture(scope="class")
    def workload_instrs(self):
        instrs = []
        for _, source in quality_workloads():
            compiled = compile_source(source, opt_level=4)
            instrs += [
                it for it in compiled.generated.buffer.items
                if isinstance(it, Instr)
            ]
        return instrs

    @staticmethod
    def fresh(encoder, instr):
        return encoder.effects(instr) or BARRIER_EFFECTS

    def test_s370_memo_matches_fresh_effects(self, workload_instrs):
        for instr in workload_instrs:
            for in_span in (False, True):
                eff = item_effects(instr, ENC, in_span)
                assert eff.effects == self.fresh(ENC, instr), instr
                assert eff.may is in_span

    def test_toy_memo_matches_fresh_effects(self, workload_instrs):
        from repro.machines.toy.machine import ToyEncoder

        toy = ToyEncoder()
        toy_instrs = _toy_instrs()
        assert toy_instrs
        for instr in toy_instrs + workload_instrs:
            eff = item_effects(instr, toy, False)
            assert eff.effects == self.fresh(toy, instr), instr

    def test_same_mnemonic_never_shares_an_entry(self):
        from repro.machines.toy.machine import ToyEncoder

        toy = ToyEncoder()
        add = Instr("add", (R(1), R(2)))  # T16 only: S/370 has no "add"
        assert item_effects(add, ENC, False).effects == BARRIER_EFFECTS
        assert item_effects(add, toy, False).effects == toy.effects(add)
        assert toy.effects(add) != BARRIER_EFFECTS
        ldi = Instr("ldi", (R(3), Imm(5)))
        assert item_effects(ldi, toy, False).effects == toy.effects(ldi)
        assert item_effects(ldi, ENC, False).effects == BARRIER_EFFECTS

    def test_memo_stays_within_its_bound(self):
        for n in range(CFG.EFFECTS_MEMO_LIMIT + 100):
            item_effects(Instr("la", (R(1), Mem(n, 0, 13))), ENC, False)
            assert len(CFG._EFFECTS_MEMO) <= CFG.EFFECTS_MEMO_LIMIT


class TestEffectCoverage:
    """Every mnemonic an encoder accepts must have an effects entry:
    a gap silently degrades every analysis to a barrier."""

    def test_s370_covers_all_mnemonics(self):
        assert ENC.effect_coverage() is not None
        assert ENC.mnemonics() <= ENC.effect_coverage()

    def test_toy_covers_all_mnemonics(self):
        from repro.machines.toy.machine import ToyEncoder

        enc = ToyEncoder()
        assert enc.mnemonics() <= enc.effect_coverage()

    def test_s370_effects_resolve_for_simple_instrs(self):
        for instr in (
            Instr("lr", (R(1), R(2))),
            Instr("st", (R(3), MEM)),
            Instr("ar", (R(1), R(2))),
        ):
            assert ENC.effects(instr) is not None


class TestDot:
    def test_dot_contains_blocks_and_liveness(self):
        cfg = build_cfg(buf([
            Instr("ltr", (R(1), R(1))),
            BranchSite(cond=8, label=1, index_reg=0),
            Instr("lr", (R(2), R(1))),
            LabelMark(1),
        ]), ENC)
        live = liveness(cfg)
        dot = to_dot(cfg, live_in=live.live_in, live_out=live.live_out,
                     title="t")
        assert dot.startswith('digraph "t"')
        assert "live-in:" in dot and "live-out:" in dot
        assert "b0 -> b2" in dot or "b0 -> b1" in dot

    def test_unreachable_block_is_dashed(self):
        cfg = build_cfg(buf([
            BranchSite(cond=15, label=1, index_reg=0),
            Instr("lr", (R(2), R(1))),
            LabelMark(1),
        ]), ENC)
        assert "style=dashed" in to_dot(cfg)
