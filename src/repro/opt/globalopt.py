"""The -O2 lane: global optimizations over whole-CFG facts.

Runs after the -O1 peephole (:mod:`repro.opt.peephole`) on the same
symbolic :class:`~repro.core.codegen.emitter.CodeBuffer` stream, but
every rewrite is justified by a dataflow solution
(:mod:`repro.opt.dataflow`) instead of a local scan:

======================  ====================================================
pass                    rewrite
======================  ====================================================
``g_unreachable``       tombstone whole blocks no root can reach
``g_forward_elim``      ``L r,m`` where ``(m, r)`` is an available store
                        on every path -> delete the load
``g_forward_copy``      ``L r2,m`` where ``(m, r1)`` is available ->
                        ``LR r2,r1`` (RX -> RR, 2 bytes shorter)
``g_copy_elim``         move between two registers already provably
                        equal on every path -> delete
``g_test_fold``         ``LTR x,x`` / RR-compare operand rewritten to the
                        register ``x`` was copied from (frees the copy)
``g_dead_def``          instruction whose every result register is dead
                        (no memory write, cannot trap) -> delete
``g_dead_store``        store whose location is provably overwritten
                        before any aliasing read on every path -> delete
``g_branch_flip``       ``Bc L1; B L2; L1:`` -> ``B(15^c) L2; L1:``
``g_fallthrough``       branch (any condition) to the very next
                        location -> delete
``g_cse_elim``          (-O3) recomputation of an expression already in
                        the same register on every path -> delete
``g_cse_copy``          (-O3) recomputation whose value sits in another
                        register on every path -> register move
======================  ====================================================

The two ``g_cse_*`` passes are the *global CSE* client of the
available-expressions analysis and only run at ``level >= 3``: they
subsume the per-reduction :class:`~repro.core.codegen.cse.CseManager`
(paper 4.4, which only tracks availability within what the IF optimizer
found) by catching recomputations across basic-block boundaries, with
the candidate set limited to the encoder's
:meth:`~repro.core.machine.Encoder.expression_ops` whitelist.

**Rounds.**  One CFG serves a run (:meth:`_Global.run`): the passes
keep it in step through :meth:`~repro.opt.cfg.Cfg.set_effects`, and it
is rebuilt only after a pass that changes control flow hit.  The run
stops once every pass has run with zero hits on the current buffer.

**Degradation contract.**  The pass never guesses.  A structurally
suspect CFG (``cfg.ok`` false) makes no rewrite and reports
``degraded_reason``.  Any exception that escapes a pass reaches
:func:`repro.pascal.compiler.compile_program` as a
:class:`~repro.errors.DataflowError`; the compiler discards the
half-rewritten buffer and recompiles one level lower.  Items inside
SkipSite fixed byte spans are never deleted or resized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from repro.core.codegen.emitter import (
    AConSite,
    BranchSite,
    DataBlock,
    Instr,
    LabelMark,
    Mem,
    R,
    StmtMark,
)
from repro.opt import dataflow as D
from repro.opt import summaries as S
from repro.opt.cfg import Cfg, build_cfg, item_effects
from repro.opt.peephole import RewriteEvent, RewriteResult

_COND_ALWAYS = 15
_MAX_ITERATIONS = 4

#: Every -O2 pass, in application order (stable key set for reports).
ALL_PASSES = (
    "g_unreachable",
    "g_forward_elim",
    "g_forward_copy",
    "g_copy_elim",
    "g_test_fold",
    "g_dead_def",
    "g_dead_store",
    "g_branch_flip",
    "g_fallthrough",
    "g_cse_elim",
    "g_cse_copy",
)

#: Opcodes whose execution can trap (divide): deleting one would change
#: observable behavior even when every result register is dead.
_TRAP_OPS = frozenset({"d", "dr", "divt"})


@dataclass
class GlobalResult(RewriteResult):
    """The shared rewrite result plus the degradation state."""

    names: Tuple[str, ...] = ALL_PASSES
    degraded_reason: str = ""
    #: -O4 only: routines with a non-barrier summary / call sites whose
    #: effect record the summaries refined (0 below -O4).
    summary_routines: int = 0
    summary_sites: int = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            **super().as_dict(),
            "degraded_reason": self.degraded_reason,
            "summaries": {
                "routines": self.summary_routines,
                "sites": self.summary_sites,
            },
        }


class _Global:
    def __init__(self, generated, encoder, nregs: int,
                 load_op: str, move_op: str, trace: bool,
                 level: int = 2):
        self.generated = generated
        self.buffer = generated.buffer
        self.encoder = encoder
        self.nregs = nregs
        self.load_op = load_op
        self.move_op = move_op
        self.trace = trace
        self.level = level
        self.expr_ops = (
            encoder.expression_ops() if encoder is not None
            else frozenset()
        )
        self.result = GlobalResult()

    # ---- bookkeeping ------------------------------------------------------

    def _record(self, name: str, index: int, before, after) -> None:
        self.result.hits[name] += 1
        if self.trace:
            from repro.core.codegen.parser_rt import _render_item

            self.result.events.append(
                RewriteEvent(
                    name,
                    index,
                    _render_item(before).strip(),
                    "(deleted)" if after is None
                    else _render_item(after).strip(),
                )
            )

    def _replace(self, cfg: Cfg, index: int, new_item) -> None:
        """Swap one item and refresh its effects entry."""
        self.buffer.items[index] = new_item
        cfg.set_effects(index, item_effects(
            new_item, self.encoder, index in cfg.skip_spans
        ))

    def _scrub_deaths(self, regs: Set[int]) -> None:
        """Drop every death fact of ``regs`` (may-info, so dropping is
        safe).  Once per pass: no global pass reads the facts."""
        if regs:
            self.buffer.deaths[:] = [
                (d, r) for d, r in self.buffer.deaths if r not in regs
            ]

    # ---- passes -----------------------------------------------------------

    def _pass_unreachable(self, cfg: Cfg) -> int:
        """Delete whole blocks no root reaches.  Blocks holding in-stream
        data (DataBlock/AConSite) are kept: their bytes may be addressed
        without a label the CFG can see."""
        removed = 0
        for block in cfg.blocks:
            if block.bid in cfg.reachable:
                continue
            keep = any(
                isinstance(item, (DataBlock, AConSite))
                for _, item in cfg.block_items(block)
            )
            if keep:
                continue
            for i, item in cfg.block_items(block):
                if i in cfg.skip_spans:
                    continue
                if isinstance(item, (Instr, BranchSite)):
                    self._record("g_unreachable", i, item, None)
                    removed += 1
                self._replace(cfg, i, None)
        return removed

    def _pass_forward(self, cfg: Cfg) -> int:
        """Cross-block store/load forwarding from available-store facts:
        ``(m, r)`` available means memory at ``m`` equals the current
        value of ``r`` on *every* path reaching this point."""
        avail = D.available_stores(cfg)
        pairs = avail.solution.problem
        changed = 0
        scrub: Set[int] = set()
        for block in cfg.blocks:
            if block.bid not in cfg.reachable:
                continue
            for i, item, before in D.walk_avail(cfg, avail, block):
                if i in cfg.skip_spans:
                    continue
                if not (isinstance(item, Instr)
                        and item.opcode == self.load_op):
                    continue
                effects = cfg.item_effects[i].effects
                if not effects.reads or effects.reads[0] is None:
                    continue
                if len(item.operands) != 2 \
                        or not isinstance(item.operands[0], R) \
                        or not isinstance(item.operands[1], Mem):
                    continue
                loc = effects.reads[0]
                r2 = item.operands[0].n
                held = before & pairs.group(0, loc)
                if not held:
                    continue
                source = pairs.lowest(held)[1]
                if source == r2:
                    self._record("g_forward_elim", i, item, None)
                    self._replace(cfg, i, None)
                else:
                    replacement = Instr(
                        self.move_op, (R(r2), R(source)),
                        comment=item.comment,
                    )
                    self._record("g_forward_copy", i, item, replacement)
                    self._replace(cfg, i, replacement)
                    # The source register's lifetime just grew past any
                    # recorded death.
                    scrub.add(source)
                changed += 1
        self._scrub_deaths(scrub)
        return changed

    def _pass_copy_elim(self, cfg: Cfg) -> int:
        """Register-equality cleanup from available-copy facts:
        ``(dst, src)`` available means the two registers provably hold
        the same value on every path reaching this point.

        * a move between two already-equal registers is a no-op: delete;
        * ``LTR x,x`` with ``(x, src)`` available becomes ``LTR src,src``
          (same CC, identity def) -- the copy that fed ``x`` can then
          die in the dead-def pass;
        * a compare's register operand is renamed to its copy source for
          the same reason (compares define nothing, so renaming a *use*
          between equal registers is always sound).
        """
        copies = D.available_copies(cfg, self.move_op)
        pairs = copies.solution.problem  # group(0, x): the (x, src) pairs
        changed = 0
        for block in cfg.blocks:
            if block.bid not in cfg.reachable:
                continue
            for i, item, before in D.walk_copies(cfg, copies, block):
                if i in cfg.skip_spans or not isinstance(item, Instr):
                    continue
                eff = cfg.item_effects[i]
                if eff.may:
                    continue
                e = eff.effects
                if D._is_reg_move(item, eff, self.move_op):
                    dst = next(iter(e.defs))
                    src = next(iter(e.uses))
                    if before & (pairs.known((dst, src))
                                 | pairs.known((src, dst))):
                        self._record("g_copy_elim", i, item, None)
                        self._replace(cfg, i, None)
                        changed += 1
                    continue
                if item.opcode == "ltr" and len(item.operands) == 2 \
                        and isinstance(item.operands[0], R) \
                        and item.operands[0] == item.operands[1]:
                    held = before & pairs.group(0, item.operands[0].n)
                    if held:
                        src = pairs.lowest(held)[1]
                        replacement = Instr(
                            "ltr", (R(src), R(src)), comment=item.comment
                        )
                        self._record("g_test_fold", i, item, replacement)
                        self._replace(cfg, i, replacement)
                        changed += 1
                    continue
                if e.cc_only and not e.reads and not e.pair:
                    renames = {}
                    for o in item.operands:
                        if isinstance(o, R):
                            held = before & pairs.group(0, o.n)
                            if held:
                                renames[o.n] = pairs.lowest(held)[1]
                    if not renames:
                        continue
                    operands = tuple(
                        R(renames[o.n])
                        if isinstance(o, R) and o.n in renames else o
                        for o in item.operands
                    )
                    if operands == item.operands:
                        continue
                    replacement = Instr(
                        item.opcode, operands, comment=item.comment
                    )
                    self._record("g_test_fold", i, item, replacement)
                    self._replace(cfg, i, replacement)
                    changed += 1
        return changed

    def _pass_dead_def(self, cfg: Cfg) -> int:
        """Liveness-driven deletion of instructions every result register
        of which is dead (classic global DCE, excluding anything that can
        trap, touch memory or set a condition code still read).  An
        instruction whose only result is the condition code (``cc_only``:
        compares and tests) is left alone."""
        live = D.liveness(cfg, self.nregs)
        changed = 0
        for block in cfg.blocks:
            if block.bid not in cfg.reachable:
                continue
            for i, item, live_after in D.walk_live(cfg, live, block):
                if i in cfg.skip_spans or not isinstance(item, Instr):
                    continue
                eff = cfg.item_effects[i]
                e = eff.effects
                if eff.may or e.barrier or e.flow or e.writes \
                        or e.save_restore:
                    continue
                if e.sets_cc and live_after & D.reg_bits((D.CC,)):
                    continue
                if e.cc_only:
                    continue
                if not e.defs or item.opcode in _TRAP_OPS:
                    continue
                if D.reg_bits(e.defs) & live_after:
                    continue
                self._record("g_dead_def", i, item, None)
                self._replace(cfg, i, None)
                changed += 1
        return changed

    def _pass_dead_store(self, cfg: Cfg) -> int:
        """Global DSE: delete stores whose written location is provably
        overwritten before any aliasing read on every path onward."""
        dead = D.memory_deadness(cfg)
        locs = dead.solution.problem
        changed = 0
        for block in cfg.blocks:
            if block.bid not in cfg.reachable:
                continue
            for i, item, dead_after in D.walk_mem_dead(cfg, dead, block):
                if i in cfg.skip_spans or not isinstance(item, Instr):
                    continue
                eff = cfg.item_effects[i]
                e = eff.effects
                if eff.may or e.barrier or e.flow:
                    continue
                if not e.writes or e.defs or e.sets_cc:
                    continue
                if len(e.writes) != 1 or e.writes[0] is None:
                    continue
                loc = e.writes[0]
                if dead_after is not None \
                        and not dead_after & locs.known(loc):
                    continue
                self._record("g_dead_store", i, item, None)
                self._replace(cfg, i, None)
                changed += 1
        return changed

    def _pass_cse(self, cfg: Cfg) -> int:
        """Global CSE from available-expression facts: an instruction
        recomputing an expression provably already computed on *every*
        path is deleted (value still in the same register) or replaced
        by a register move (value lives elsewhere)."""
        if not self.expr_ops:
            return 0
        avail = D.available_exprs(cfg, self.expr_ops)
        exprs = avail.solution.problem
        changed = 0
        scrub: Set[int] = set()
        for block in cfg.blocks:
            if block.bid not in cfg.reachable:
                continue
            for i, item, before in D.walk_exprs(cfg, avail, block):
                if i in cfg.skip_spans:
                    continue
                fact = cfg.item_effects[i].expr
                if fact is None:
                    continue
                key, _, dst = fact
                # All registers proven to hold the value; prefer the
                # instruction's own destination (a pure deletion), then
                # the lowest register -- the choice must not depend on
                # set iteration order.
                same = before & exprs.group(0, key)
                holders = sorted(f_dst for _, _, f_dst in exprs.decode(same))
                if not holders:
                    continue
                source = dst if dst in holders else holders[0]
                if source == dst:
                    self._record("g_cse_elim", i, item, None)
                    self._replace(cfg, i, None)
                else:
                    replacement = Instr(
                        self.move_op, (R(dst), R(source)),
                        comment=item.comment,
                    )
                    self._record("g_cse_copy", i, item, replacement)
                    self._replace(cfg, i, replacement)
                    # The source register now feeds a later consumer:
                    # any recorded death is stale.
                    scrub.add(source)
                changed += 1
        self._scrub_deaths(scrub)
        return changed

    def _labels_between(self, lo: int, hi: int) -> Optional[Set[int]]:
        """Labels marked strictly between two indices, or ``None`` when
        any executable item intervenes."""
        labels: Set[int] = set()
        for k in range(lo + 1, hi):
            item = self.buffer.items[k]
            if item is None or isinstance(item, StmtMark):
                continue
            if isinstance(item, LabelMark):
                labels.add(item.label)
                continue
            return None
        return labels

    def _pass_branches(self, cfg: Cfg) -> int:
        """Branch-over-branch inversion plus conditional fallthrough
        deletion (the cross-block ``fallthrough_branch`` extension)."""
        items = self.buffer.items
        changed = 0
        for block in cfg.blocks:
            if block.bid not in cfg.reachable:
                continue
            i = None
            for k in range(block.end - 1, block.start - 1, -1):
                if items[k] is not None:
                    if isinstance(items[k], BranchSite):
                        i = k
                    break
            if i is None:
                continue
            site = items[i]
            if site.link_reg is not None or i in cfg.skip_spans:
                continue
            # Branch (any condition) straight to the next location:
            # taken or not, execution continues at the same item.
            ahead = self._labels_until_executable(i)
            if site.label in ahead:
                self._record("g_fallthrough", i, site, None)
                self._replace(cfg, i, None)
                changed += 1
                continue
            # Bc L1; B L2; L1:  ->  B(15^c) L2; L1:
            if site.cond in (0, _COND_ALWAYS):
                continue
            j, uncond = self._next_executable(i)
            if not (isinstance(uncond, BranchSite)
                    and uncond.cond == _COND_ALWAYS
                    and uncond.link_reg is None):
                continue
            if self._labels_between(i, j) != set():
                continue  # someone can enter between the two branches
            if site.label not in self._labels_until_executable(j):
                continue
            flipped = BranchSite(
                cond=_COND_ALWAYS ^ site.cond,
                label=uncond.label,
                index_reg=uncond.index_reg,
                comment=site.comment,
            )
            self._record("g_branch_flip", i, site, flipped)
            self._replace(cfg, i, flipped)
            self._replace(cfg, j, None)
            self.generated.labels.reference(uncond.label)
            changed += 1
        return changed

    def _next_executable(self, idx: int):
        items = self.buffer.items
        j = idx + 1
        while j < len(items):
            item = items[j]
            if item is None or isinstance(item, (StmtMark, LabelMark)):
                j += 1
                continue
            return j, item
        return None, None

    def _labels_until_executable(self, idx: int) -> Set[int]:
        """Labels marked after ``idx`` before the next executable item."""
        items = self.buffer.items
        labels: Set[int] = set()
        j = idx + 1
        while j < len(items):
            item = items[j]
            if item is None or isinstance(item, StmtMark):
                j += 1
                continue
            if isinstance(item, LabelMark):
                labels.add(item.label)
                j += 1
                continue
            return labels
        return labels

    # ---- driver -----------------------------------------------------------

    def _build(self) -> Cfg:
        """Build the CFG; at -O4 additionally compute and apply the
        interprocedural summaries, remembering each call site's
        unrefined effects for :meth:`_summarize`."""
        if self.level < 4:
            return build_cfg(self.buffer, self.encoder)
        cfg = build_cfg(
            self.buffer, self.encoder,
            disjoint_bases=self.encoder.disjoint_base_pairs(),
        )
        self.calls = {
            i: cfg.item_effects[i]
            for i, item in enumerate(self.buffer.items)
            if isinstance(item, BranchSite) and item.link_reg is not None
        }
        if cfg.ok:
            self._summarize(cfg)
        return cfg

    def _summarize(self, cfg: Cfg) -> bool:
        """Recompute the summaries from the current buffer, as a fresh
        CFG would see them: reset every call site to its unrefined
        effects, then refine.  True when any site's effects changed."""
        before = [(i, cfg.item_effects[i]) for i in self.calls]
        for i, effects in self.calls.items():
            cfg.set_effects(i, effects)
        self.result.summary_routines, self.result.summary_sites = \
            S.refine_call_sites(cfg, self.encoder)
        return any(
            cfg.item_effects[i].effects != effects.effects
            for i, effects in before
        )

    def run(self) -> GlobalResult:
        self._rounds()
        if self.result.total:
            self.buffer.compact()
        return self.result

    def _rounds(self) -> None:
        """Apply the passes in rounds until every pass has run with zero
        hits on the current buffer (at most ``_MAX_ITERATIONS`` rounds).

        The CFG is built once and kept in step with each rewrite; only a
        hit of a pass that changes control flow makes the next pass
        rebuild it.  A pass that found nothing is not run again until
        the buffer (or, at -O4, a call site's summary) has changed."""
        passes = [
            (self._pass_unreachable, True),
            (self._pass_forward, False),
        ]
        if self.level >= 3:
            passes.append((self._pass_cse, False))
        passes += [
            (self._pass_copy_elim, False),
            (self._pass_dead_def, False),
            (self._pass_dead_store, False),
            (self._pass_branches, True),
        ]
        version = 0  # bumped by every change to the buffer or summaries
        clean = [-1] * len(passes)  # version each pass last found nothing
        cfg: Optional[Cfg] = None
        while self.result.iterations < _MAX_ITERATIONS:
            self.result.iterations += 1
            kept = cfg is not None
            if not kept:
                cfg = self._build()
            if not cfg.ok:
                if self.result.total == 0:
                    self.result.degraded_reason = cfg.reason
                return
            if kept and self.level >= 4 and self._summarize(cfg):
                version += 1
            for k, (apply, reshapes) in enumerate(passes):
                if cfg is None:
                    cfg = self._build()
                if apply(cfg):
                    version += 1
                    if reshapes:
                        cfg = None
                else:
                    clean[k] = version
                    if clean.count(version) == len(passes):
                        return


def run_global(
    generated,
    encoder,
    nregs: int = 16,
    load_op: str = "l",
    move_op: str = "lr",
    trace: bool = False,
    level: int = 2,
) -> GlobalResult:
    """Run the global passes over a
    :class:`~repro.core.codegen.parser_rt.GeneratedCode` in place.

    ``encoder`` supplies the per-mnemonic effect table; ``nregs`` the
    register-file size (16 for S/370, 8 for T16); ``load_op``/
    ``move_op`` the target's full-word load and register-move mnemonics
    (forwarding rewrites loads into moves).  ``level >= 3`` additionally
    enables the global-CSE passes (``g_cse_elim``/``g_cse_copy``);
    ``level >= 4`` feeds every pass interprocedural effect summaries
    (:mod:`repro.opt.summaries`) so facts survive refined call sites.
    An unbuildable CFG makes no rewrite and sets ``degraded_reason``.
    """
    return _Global(
        generated, encoder, nregs, load_op, move_op, trace, level=level
    ).run()
