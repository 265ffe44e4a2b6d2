"""The -O2..-O4 lane: global optimizations over whole-CFG facts.

Runs after the -O1 peephole (:mod:`repro.opt.peephole`) on the same
symbolic :class:`~repro.core.codegen.emitter.CodeBuffer` stream, but
every rewrite is justified by a dataflow solution
(:mod:`repro.opt.dataflow`) instead of a local scan.  A round is three
steps:

* **the value sweep** -- one forward walk over
  :func:`~repro.opt.dataflow.available_values`, which knows which
  registers hold the word at a location (a store left it there), the
  value of an expression (-O3 and up) or each other's value (a move).
  Every load, recomputation, move, test and register compare reads its
  value from the oldest register known to hold it, or is deleted when
  its target already does;
* **the dead sweep** -- one backward walk over
  :func:`~repro.opt.dataflow.liveness` and
  :func:`~repro.opt.dataflow.memory_deadness` in step, deleting what
  nothing reads;
* **the control-flow step** -- unreachable blocks and branch cleanup,
  the only step that reshapes the CFG.

======================  ====================================================
rewrite                 effect
======================  ====================================================
``g_forward_elim``      ``L r,m`` where ``r`` (or a copy of it) already
                        equals the word at ``m`` on every path -> delete
``g_forward_copy``      ``L r2,m`` where ``r1`` equals it ->
                        ``LR r2,r1`` (RX -> RR, 2 bytes shorter)
``g_cse_elim``          (-O3) recomputation of an expression already in
                        the same register on every path -> delete
``g_cse_copy``          (-O3) recomputation whose value sits in another
                        register on every path -> register move
``g_copy_elim``         move between two registers already provably
                        equal on every path -> delete
``g_copy_prop``         ``LR r6,r8; LR r1,r6`` -> ``LR r1,r8``: a move
                        reads the root of its source's copy chain
``g_test_fold``         ``LTR x,x`` / RR-compare operand rewritten to the
                        root of ``x``'s copy chain (frees the copy)
``g_dead_def``          instruction whose every result register is dead
                        (no memory write, cannot trap) -> delete
``g_dead_store``        store whose location is provably overwritten
                        before any aliasing read on every path -> delete
``g_unreachable``       tombstone whole blocks no root can reach
``g_branch_flip``       ``Bc L1; B L2; L1:`` -> ``B(15^c) L2; L1:``
``g_fallthrough``       branch (any condition) to the very next
                        location -> delete
======================  ====================================================

The ``g_cse_*`` rewrites are the *global CSE* client of the expression
facts and only run at ``level >= 3``: they subsume the per-reduction
:class:`~repro.core.codegen.cse.CseManager` (paper 4.4, which only
tracks availability within what the IF optimizer found) by catching
recomputations across basic-block boundaries, with the candidate set
limited to the encoder's
:meth:`~repro.core.machine.Encoder.expression_ops` whitelist.  Each
rewrite rule keeps the method name (``_pass_*``) of the pass it once
was; the sweeps call them item by item.

**Rounds.**  One CFG serves a run (:meth:`_Global.run`): the sweeps
keep it in step through :meth:`~repro.opt.cfg.Cfg.set_effects`, and it
is rebuilt only after the control-flow step hit.  The run stops after
the first round that makes no rewrite, with no cap on the rounds;
:meth:`_Global._rounds` states the measure that bounds them.

**Degradation contract.**  The pass never guesses.  A structurally
suspect CFG (``cfg.ok`` false) raises
:class:`~repro.errors.DataflowError`, and so does, wrapped by the
compiler, any exception that escapes a sweep or step: it reaches
:func:`repro.pascal.compiler.compile_program`, which discards the
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
from repro.errors import DataflowError
from repro.opt import dataflow as D
from repro.opt import summaries as S
from repro.opt.cfg import Cfg, build_cfg, item_effects
from repro.opt.peephole import RewriteEvent, RewriteResult

_COND_ALWAYS = 15

#: Every -O2..-O4 rewrite (the stable key set of ``hits`` in reports).
ALL_PASSES = (
    "g_unreachable",
    "g_forward_elim",
    "g_forward_copy",
    "g_copy_elim",
    "g_copy_prop",
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
    degraded_reason: str = ""  # always empty; benchmark/worker.py reads it
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
        #: registers the value sweep's rewrites newly read
        self.reads: Set[int] = set()

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
        safe).  Once per sweep: no global rewrite reads the facts."""
        if regs:
            self.buffer.deaths[:] = [
                (d, r) for d, r in self.buffer.deaths if r not in regs
            ]

    # ---- the value sweep ----------------------------------------------------

    def _sweep_values(self, cfg: Cfg) -> int:
        """One forward walk over the available values: every load,
        recomputation, move, test and register compare reads its value
        from the oldest register known to hold it, or is deleted when
        its target already does."""
        values = D.available_values(
            cfg, self.move_op,
            self.expr_ops if self.level >= 3 else frozenset(), self.nregs,
        )
        facts = values.solution.problem
        # Rewrites number no new fact (every copy fact is seeded), so
        # the family mask holds for the whole walk.
        copy_bits = facts.group(0, D.COPY)
        effects = cfg.item_effects
        spans = cfg.skip_spans
        changed = 0
        self.reads = set()
        copies_of = parent = None  # ``parent`` decodes ``copies_of``
        for block in cfg.blocks:
            if block.bid not in cfg.reachable:
                continue
            for i, item, before in D.walk_values(cfg, values, block):
                eff = effects[i]
                rule = self._value_rule(item, eff)
                if rule is None or i in spans:
                    continue
                copies = before & copy_bits
                if copies != copies_of:
                    copies_of, parent = copies, facts.copies(copies)
                if rule(cfg, i, item, eff, before, facts, parent):
                    changed += 1
        # The registers rewrites now read live past any recorded death.
        self._scrub_deaths(self.reads)
        return changed

    def _value_rule(self, item, eff):
        """The rule of the value sweep an item meets."""
        if not isinstance(item, Instr) or eff.may:
            return None
        if item.opcode == self.load_op:
            return self._pass_forward
        if eff.expr is not None:
            return self._pass_cse if self.level >= 3 else None
        if item.opcode in (self.move_op, "ltr") or eff.effects.cc_only:
            return self._pass_copy_elim
        return None

    def _rewrite(self, cfg: Cfg, name: str, i: int, item,
                 replacement) -> bool:
        self._record(name, i, item, replacement)
        self._replace(cfg, i, replacement)
        if replacement is not None:
            self.reads |= cfg.item_effects[i].effects.uses
        return True

    def _reuse(self, cfg: Cfg, i: int, item, dst: int, held, parent,
               names) -> Optional[bool]:
        """Rewrite ``item``, which leaves a value in ``dst``, given the
        registers ``held`` that already hold that value: delete it when
        ``dst`` is one of them or a copy of one (``names[0]``), else
        turn it into a move from the root of the first one's copy chain
        (``names[1]``).  ``None`` when ``held`` is empty."""
        if not held:
            return None
        root = D.copy_root(parent, dst)
        if any(D.copy_root(parent, r) == root for r in held):
            return self._rewrite(cfg, names[0], i, item, None)
        source = D.copy_root(parent, held[0])
        return self._rewrite(cfg, names[1], i, item, Instr(
            self.move_op, (R(dst), R(source)), comment=item.comment
        ))

    def _pass_forward(self, cfg: Cfg, i: int, item, eff, before, facts,
                      parent) -> Optional[bool]:
        """A full-word load ``L r,m``: the registers a store to ``m``
        left equal to it (``g_forward_elim``/``g_forward_copy``), else,
        at -O3 and up, those that loaded the same word
        (``g_cse_elim``/``g_cse_copy``)."""
        e = eff.effects
        if not e.reads or e.reads[0] is None or len(item.operands) != 2 \
                or not isinstance(item.operands[0], R) \
                or not isinstance(item.operands[1], Mem):
            return None
        dst = item.operands[0].n
        hit = self._reuse(
            cfg, i, item, dst, facts.stored(before, e.reads[0]), parent,
            ("g_forward_elim", "g_forward_copy"),
        )
        if hit is None and eff.expr is not None and self.level >= 3:
            return self._pass_cse(cfg, i, item, eff, before, facts, parent)
        return hit

    def _pass_cse(self, cfg: Cfg, i: int, item, eff, before, facts,
                  parent) -> Optional[bool]:
        """Global CSE (-O3 and up): a recomputation of an expression
        some register already holds on every path, the lowest such
        register first."""
        key, _, dst = eff.expr
        return self._reuse(
            cfg, i, item, dst, sorted(facts.computed(before, key)), parent,
            ("g_cse_elim", "g_cse_copy"),
        )

    def _pass_copy_elim(self, cfg: Cfg, i: int, item, eff, before, facts,
                        parent) -> Optional[bool]:
        """Register moves, tests and compares over the copy facts:

        * a move between two registers already equal is deleted
          (``g_copy_elim``); any other move reads the root of its
          source's copy chain (``g_copy_prop``), so ``LR r6,r8;
          LR r1,r6`` becomes ``LR r6,r8; LR r1,r8`` and the first move
          can die;
        * ``LTR x,x`` tests the root of ``x``'s chain instead, and a
          compare's register operands are renamed to their roots
          (``g_test_fold``): same CC, and the copies that fed them can
          die.  Compares define nothing, so renaming a *use* between
          equal registers is always sound."""
        e = eff.effects
        if D._is_reg_move(item, eff, self.move_op):
            dst = next(iter(e.defs))
            src = next(iter(e.uses))
            root = D.copy_root(parent, src)
            if D.copy_root(parent, dst) == root:
                return self._rewrite(cfg, "g_copy_elim", i, item, None)
            if root == src:
                return None
            name = "g_copy_prop"
            operands = (R(dst), R(root))
        elif item.opcode == "ltr" and len(item.operands) == 2 \
                and isinstance(item.operands[0], R) \
                and item.operands[0] == item.operands[1]:
            root = D.copy_root(parent, item.operands[0].n)
            if root == item.operands[0].n:
                return None
            name = "g_test_fold"
            operands = (R(root), R(root))
        elif e.cc_only and not e.reads and not e.pair:
            operands = tuple(
                R(D.copy_root(parent, o.n)) if isinstance(o, R) else o
                for o in item.operands
            )
            if operands == item.operands:
                return None
            name = "g_test_fold"
        else:
            return None
        return self._rewrite(cfg, name, i, item, Instr(
            item.opcode, operands, comment=item.comment
        ))

    # ---- the dead sweep -----------------------------------------------------

    def _sweep_dead(self, cfg: Cfg) -> int:
        """One backward walk over liveness and memory deadness in step:
        instructions whose every result is dead, and stores whose
        location is overwritten before any read.  A deleted item is
        stepped as nothing, so what it alone kept alive is dead before
        it."""
        live = D.liveness(cfg, self.nregs)
        dead = D.memory_deadness(cfg)
        effects = cfg.item_effects
        spans = cfg.skip_spans
        changed = 0
        for block in cfg.blocks:
            if block.bid not in cfg.reachable:
                continue
            for (i, item, live_after), (_, _, dead_after) in zip(
                D.walk_live(cfg, live, block),
                D.walk_mem_dead(cfg, dead, block),
            ):
                if i in spans or not isinstance(item, Instr):
                    continue
                eff = effects[i]
                e = eff.effects
                if eff.may or e.barrier or e.flow:
                    continue
                if e.writes:
                    changed += self._pass_dead_store(
                        cfg, i, item, eff, dead_after, dead)
                elif e.defs and not e.cc_only:
                    changed += self._pass_dead_def(
                        cfg, i, item, eff, live_after)
        return changed

    def _pass_dead_def(self, cfg: Cfg, i: int, item, eff,
                       live_after: int) -> int:
        """Global DCE: an instruction every result register of which is
        dead, excluding anything that can trap, touch memory or set a
        condition code still read.  An instruction whose only result is
        the condition code (``cc_only``: compares and tests) is left
        alone."""
        # Liveness' kill: the results, the CC among them when set.
        if live_after & eff.live[0] or eff.effects.save_restore \
                or item.opcode in _TRAP_OPS:
            return 0
        self._record("g_dead_def", i, item, None)
        self._replace(cfg, i, None)
        return 1

    def _pass_dead_store(self, cfg: Cfg, i: int, item, eff,
                         dead_after: Optional[int], dead) -> int:
        """Global DSE: a store whose location is overwritten before any
        aliasing read on every path onward (``dead_after`` ``None``:
        every location is)."""
        e = eff.effects
        if e.defs or e.sets_cc or len(e.writes) != 1 \
                or e.writes[0] is None:
            return 0
        if dead_after is not None and not dead_after \
                & dead.solution.problem.known(e.writes[0]):
            return 0
        self._record("g_dead_store", i, item, None)
        self._replace(cfg, i, None)
        return 1

    # ---- the control-flow step -----------------------------------------------

    def _control_flow(self, cfg: Cfg) -> int:
        """Unreachable blocks, then branch cleanup: the step that
        reshapes the CFG."""
        return self._pass_unreachable(cfg) + self._pass_branches(cfg)

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

    def _summarize(self, cfg: Cfg) -> None:
        """Recompute the summaries from the current buffer, as a fresh
        CFG would see them: reset every call site to its unrefined
        effects, then refine."""
        for i, effects in self.calls.items():
            cfg.set_effects(i, effects)
        self.result.summary_routines, self.result.summary_sites = \
            S.refine_call_sites(cfg, self.encoder)

    def run(self) -> GlobalResult:
        self._rounds()
        if self.result.total:
            self.buffer.compact()
        return self.result

    def _rounds(self) -> None:
        """Run rounds of the value sweep, the dead sweep and the
        control-flow step until a round makes no rewrite.

        The CFG is built once and kept in step with each rewrite; only a
        hit of the control-flow step makes the next round rebuild it.
        At -O4 each round on a kept CFG first refines the call sites
        from the current buffer.

        The rounds end: a round that does not end the run made a
        rewrite, and each rewrite deletes an item, turns a load or a
        recomputation into a register move, or renames a register read
        (``g_copy_prop``, ``g_test_fold``) to the root of its copy
        chain.  The first two shrink ``(items, non-move instructions)``
        and nothing grows it.  Between two such shrinks the executions
        are fixed, and a rename makes its read site read a value defined
        strictly earlier on every path through it, so each site is
        renamed fewer than ``nregs`` times."""
        cfg: Optional[Cfg] = None
        while True:
            self.result.iterations += 1
            if cfg is None:
                cfg = self._build()
                if not cfg.ok:
                    raise DataflowError(
                        f"CFG unavailable ({cfg.reason})",
                        analysis="globalopt",
                    )
            elif self.level >= 4:
                self._summarize(cfg)
            before = self.result.total
            self._sweep_values(cfg)
            self._sweep_dead(cfg)
            if self._control_flow(cfg):
                cfg = None
            if self.result.total == before:
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
    An unbuildable CFG raises :class:`~repro.errors.DataflowError`.
    """
    return _Global(
        generated, encoder, nregs, load_op, move_op, trace, level=level
    ).run()
