"""Basic blocks and a control-flow graph over the symbolic CodeBuffer.

Runs on the same post-selection, pre-resolution item stream as the
peephole pass (:mod:`repro.opt.peephole`): labels and branches are still
symbolic (``LabelMark`` / ``BranchSite``), so block boundaries and edges
come from the *symbolic* control structure instead of decoded bytes.

Design notes
------------

* **Leaders** are: item 0, every ``LabelMark``, and every item after a
  control transfer (a ``BranchSite`` or an ``Instr`` whose effects carry
  a ``flow`` classification).
* **SkipSites stay atomic.**  A ``SkipSite`` conditionally hops over the
  next ``2*halfwords`` bytes *inside* one template's emission; its span
  never contains labels or branches (checked -- a violation marks the
  whole CFG not-ok).  The span is kept inside the enclosing block and
  instructions in it are *may*-executed: their defs/writes do not kill
  facts (:func:`item_effects` flags them ``may``).
* **Unknown successors are modelled, not guessed.**  Register-indirect
  jumps (``bcr 15,r14`` returns), supervisor exits and in-stream data
  give their block ``exits=True``: an edge to the virtual exit where
  every analysis assumes the worst.  ``halts=True`` (SVC 0/9) is the one
  terminator with *nothing* live after it.
* **Roots** are block 0 (module entry), every call target
  (``BranchSite.link_reg``), and every label whose address is taken
  (``AConSite`` -- branch tables).  Reachability is computed from all
  roots, so routine bodies entered only via BAL are not "unreachable".

When the stream violates a structural assumption (branch to an
undefined label, label or branch inside a skip span), the builder
returns a CFG with ``ok=False`` and a reason; clients must then degrade
(the -O2 pass falls back to -O1 output, the sanitizer reports nothing
rather than guessing).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.effects import (
    BARRIER_EFFECTS,
    FLOW_CALL,
    FLOW_CJUMP,
    FLOW_HALT,
    FLOW_JUMP,
    FLOW_RETURN,
    InstrEffects,
)
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
from repro.core.machine import Encoder

_COND_ALWAYS = 15


@dataclass(frozen=True, eq=False)
class ItemEffects:
    """Effects of one *item* (not just Instr): the instruction effects
    plus a ``may`` flag for skip-span items whose execution is
    conditional, and the per-shape data every solver step needs --
    ``kills`` (``defs | may_defs``) and ``expr``, the item's
    available-expression fact (:func:`expr_fact`) or ``None``.

    Records compare and hash by identity, so the dataflow kernel can
    key its per-record transfer pairs on them cheaply; compare
    ``effects`` for equal contents."""

    effects: InstrEffects
    may: bool = False
    expr: Optional[tuple] = None
    kills: FrozenSet[int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        e = self.effects
        object.__setattr__(self, "kills", e.defs | e.may_defs)

    @cached_property
    def live(self) -> Tuple[int, Optional[int]]:
        """The liveness transfer ``(kill, gen)`` in the bits of
        :func:`reg_bits`; ``gen`` is ``None`` for a barrier, before
        which every register the analysis tracks is live.  Derived on
        first use, so only the -O2..-O4 solvers pay for it."""
        e = self.effects
        if e.barrier:
            return -1, None
        return (
            0 if self.may else reg_bits(e.defs) | e.sets_cc,
            reg_bits(e.uses) | e.reads_cc,
        )


@lru_cache(maxsize=1024)
def reg_bits(regs: FrozenSet[int]) -> int:
    """Liveness bits of a register set: the condition code (register
    ``-1``) is bit 0 and register ``r`` bit ``r + 1``."""
    bits = 0
    for r in regs:
        bits |= 1 << (r + 1)
    return bits


_NO_EFFECTS = ItemEffects(InstrEffects())
_BARRIER_ITEM = ItemEffects(BARRIER_EFFECTS)

#: ``(encoder, opcode, operands, may) -> ItemEffects`` across CFG
#: rebuilds.  Sound because an encoder's effects (and so the kill set
#: and expression fact derived from them) depend only on the opcode and
#: operands, and both effect records are frozen.  Cleared
#: whole when it reaches :data:`EFFECTS_MEMO_LIMIT` entries.
_EFFECTS_MEMO: Dict[tuple, ItemEffects] = {}
EFFECTS_MEMO_LIMIT = 4096


@dataclass
class BasicBlock:
    """One basic block: a span of item indices ``[start, end)``."""

    bid: int
    start: int
    end: int
    succs: List[int] = field(default_factory=list)
    preds: List[int] = field(default_factory=list)
    #: Block ends in a transfer with a successor outside the local CFG
    #: (return, indirect jump, in-stream data): analyses assume the
    #: worst at this boundary.
    exits: bool = False
    #: Block ends the program (SVC HALT/ABORT): nothing is live after.
    halts: bool = False

    def indices(self) -> range:
        return range(self.start, self.end)


@dataclass
class Cfg:
    """The control-flow graph plus the item-level side tables the
    dataflow solvers need."""

    buffer: CodeBuffer
    blocks: List[BasicBlock]
    #: item index -> owning block id (tombstones/marks included).
    block_of: Dict[int, int]
    #: label -> block id of its LabelMark.
    label_block: Dict[int, int]
    #: item indices inside a SkipSite's fixed byte span (may-executed).
    skip_spans: FrozenSet[int]
    #: Root block ids (entry + call targets + address-taken labels).
    roots: Tuple[int, ...]
    #: Reachable-from-roots block ids.
    reachable: FrozenSet[int]
    #: per-item effects, parallel to ``buffer.items``.  The -O4
    #: summaries pass refines call-site entries in place
    #: (:func:`repro.opt.summaries.apply_summaries`); every solver
    #: reads through this table, so one rewrite reaches them all.
    #: Write it through :meth:`set_effects`.
    item_effects: List[ItemEffects]
    #: target-declared disjoint-region base pairs threaded into
    #: :func:`repro.core.effects.may_alias` by the solvers; empty keeps
    #: aliasing fully conservative (every level below -O4).
    disjoint_bases: FrozenSet[FrozenSet[int]] = frozenset()
    ok: bool = True
    reason: str = ""
    #: per-analysis fact indexes, item pairs and block summaries of
    #: :mod:`repro.opt.dataflow`, kept for the CFG's lifetime.
    problems: Dict[tuple, object] = field(
        default_factory=dict, compare=False, repr=False
    )

    @property
    def nblocks(self) -> int:
        return len(self.blocks)

    def set_effects(self, index: int, effects: ItemEffects) -> None:
        """Give item ``index`` new effects (after a rewrite of the item,
        or a refined call site) and drop the dataflow state they
        invalidate."""
        self.item_effects[index] = effects
        for problem in self.problems.values():
            problem.changed(index)

    def block_items(self, block: BasicBlock):
        """(index, item) pairs of one block, tombstones skipped."""
        items = self.buffer.items
        for i in block.indices():
            item = items[i]
            if item is not None:
                yield i, item


def _item_min_size(item, encoder: Optional[Encoder]) -> int:
    """Lower-bound byte size of one buffer item (skip-span accounting)."""
    if item is None or isinstance(item, (LabelMark, StmtMark)):
        return 0
    if isinstance(item, Instr):
        if encoder is not None:
            try:
                return encoder.size(item)
            except Exception:
                return 4
        return 4
    if isinstance(item, (BranchSite, SkipSite, AConSite)):
        return 4
    return len(item.data)  # DataBlock


def compute_skip_spans(
    items, encoder: Optional[Encoder] = None
) -> Set[int]:
    """Indices covered by some SkipSite's fixed ``2*halfwords`` span."""
    spans: Set[int] = set()
    for i, item in enumerate(items):
        if not isinstance(item, SkipSite):
            continue
        remaining = 2 * item.halfwords
        j = i + 1
        while remaining > 0 and j < len(items):
            spans.add(j)
            remaining -= _item_min_size(items[j], encoder)
            j += 1
    return spans


def _canon_part(operand) -> Optional[tuple]:
    """Order-stable shape of one non-destination operand; ``None`` when
    the operand kind cannot be value-numbered."""
    if isinstance(operand, R):
        return ("r", operand.n)
    if isinstance(operand, Mem):
        return ("m", operand.base, operand.index, operand.disp)
    if isinstance(operand, Imm):
        return ("i", operand.value)
    return None


def expr_fact(
    item, e: InstrEffects, may: bool, expr_ops: FrozenSet[str]
) -> Optional[tuple]:
    """The ``(key, reads, dst)`` available-expression fact one item
    generates, or ``None``.

    ``key`` is a canonical value number: the opcode plus the shape of
    every non-destination operand.  Eligibility is deliberately narrow:
    a whitelisted pure opcode with exactly one must-defined register
    that is not also read, no memory writes, no CC traffic, no
    pair/barrier/flow behavior, and every dependent location exactly
    tracked (no ``None`` reads)."""
    if may or not isinstance(item, Instr):
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
    parts = tuple(_canon_part(o) for o in item.operands[1:])
    if any(p is None for p in parts):
        return None
    return (item.opcode,) + parts, tuple(e.reads), dst


def item_effects(
    item, encoder: Optional[Encoder], in_span: bool
) -> ItemEffects:
    """Effects of one buffer item for the dataflow solvers.

    ``BranchSite``/``SkipSite`` get synthetic effects (condition-code
    read, index/link register traffic); data items are barriers; an
    ``Instr`` defers to the encoder's per-mnemonic table, with a missing
    table entry treated as a barrier rather than guessed.

    A site's ``index_reg`` is a *may-def*, not a use: the loader's long
    form loads the page literal into it first and only then branches
    through it (:mod:`repro.core.codegen.loader_records`), so the
    register's incoming value is never read, while the short form does
    not touch it at all.
    """
    if item is None or isinstance(item, (LabelMark, StmtMark)):
        return _NO_EFFECTS
    if isinstance(item, BranchSite):
        scratch = (
            frozenset({item.index_reg}) if item.index_reg else frozenset()
        )
        if item.link_reg is not None:
            # A call: the callee may read and write anything.
            return ItemEffects(
                InstrEffects(barrier=True, flow=FLOW_CALL)
            )
        return ItemEffects(
            InstrEffects(
                may_defs=scratch,
                reads_cc=item.cond not in (0, _COND_ALWAYS),
                flow=FLOW_JUMP if item.cond == _COND_ALWAYS else FLOW_CJUMP,
            )
        )
    if isinstance(item, SkipSite):
        scratch = (
            frozenset({item.index_reg}) if item.index_reg else frozenset()
        )
        return ItemEffects(
            InstrEffects(
                may_defs=scratch,
                reads_cc=item.cond not in (0, _COND_ALWAYS),
            )
        )
    if isinstance(item, (AConSite, DataBlock)):
        return _BARRIER_ITEM
    # An Instr.
    if encoder is None:
        return ItemEffects(BARRIER_EFFECTS, may=in_span)
    key = (encoder, item.opcode, item.operands, in_span)
    cached = _EFFECTS_MEMO.get(key)
    if cached is None:
        effects = encoder.effects(item)
        if effects is None:
            effects = BARRIER_EFFECTS
        cached = ItemEffects(
            effects, may=in_span,
            expr=expr_fact(item, effects, in_span,
                           encoder.expression_ops()),
        )
        if len(_EFFECTS_MEMO) >= EFFECTS_MEMO_LIMIT:
            _EFFECTS_MEMO.clear()
        _EFFECTS_MEMO[key] = cached
    return cached


def build_cfg(
    buffer: CodeBuffer, encoder: Optional[Encoder] = None,
    disjoint_bases: FrozenSet[FrozenSet[int]] = frozenset(),
) -> Cfg:
    """Partition ``buffer.items`` into basic blocks and wire the edges."""
    items = buffer.items
    n = len(items)
    spans = compute_skip_spans(items, encoder)
    effects: List[ItemEffects] = [
        item_effects(item, encoder, i in spans)
        for i, item in enumerate(items)
    ]

    problem = ""
    label_def: Dict[int, int] = {}
    for i, item in enumerate(items):
        if isinstance(item, LabelMark):
            if i in spans:
                problem = f"label L{item.label} inside a skip span"
                break
            if item.label in label_def:
                problem = f"label L{item.label} defined twice"
                break
            label_def[item.label] = i
        elif isinstance(item, (BranchSite, SkipSite)) and i in spans:
            problem = "branch inside a skip span"
            break
        elif i in spans and effects[i].effects.flow:
            problem = "control transfer inside a skip span"
            break

    # ---- leaders ----------------------------------------------------------
    leaders: Set[int] = {0} if n else set()
    for i, item in enumerate(items):
        if isinstance(item, LabelMark):
            leaders.add(i)
        flow = effects[i].effects.flow
        if flow and not effects[i].may and i + 1 < n:
            leaders.add(i + 1)

    blocks: List[BasicBlock] = []
    block_of: Dict[int, int] = {}
    for start in sorted(leaders):
        if blocks:
            blocks[-1].end = start
        blocks.append(BasicBlock(bid=len(blocks), start=start, end=n))
    for block in blocks:
        for i in block.indices():
            block_of[i] = block.bid

    label_block = {
        label: block_of[i] for label, i in label_def.items()
    }

    # ---- edges ------------------------------------------------------------
    roots: Set[int] = {0} if blocks else set()
    for block in blocks:
        term_idx = None
        for i in range(block.end - 1, block.start - 1, -1):
            item = items[i]
            if item is None or isinstance(item, (StmtMark, LabelMark)):
                continue
            if effects[i].effects.flow and not effects[i].may:
                term_idx = i
            break
        if term_idx is None:
            # Falls through into the next block (or off the end).
            if block.bid + 1 < len(blocks):
                block.succs.append(block.bid + 1)
            else:
                block.exits = True
            continue
        term = items[term_idx]
        flow = effects[term_idx].effects.flow
        if isinstance(term, BranchSite) and term.link_reg is None:
            target = label_block.get(term.label)
            if target is None:
                problem = problem or (
                    f"branch to undefined label L{term.label}"
                )
            else:
                block.succs.append(target)
            if term.cond != _COND_ALWAYS:
                if block.bid + 1 < len(blocks):
                    block.succs.append(block.bid + 1)
                else:
                    block.exits = True
        elif flow == FLOW_HALT:
            block.halts = True
        elif flow in (FLOW_JUMP, FLOW_RETURN):
            # Indirect transfer (bcr via register): outside the local CFG.
            block.exits = True
        else:
            # A call (BranchSite.link_reg or bal/balr/svc) or a
            # conditional indirect jump: control returns / may fall
            # through to the next block.
            if flow == FLOW_CJUMP:
                block.exits = True
            if block.bid + 1 < len(blocks):
                block.succs.append(block.bid + 1)
            else:
                block.exits = True

    for block in blocks:
        for succ in block.succs:
            blocks[succ].preds.append(block.bid)

    # ---- roots and reachability -------------------------------------------
    for i, item in enumerate(items):
        if isinstance(item, BranchSite) and item.link_reg is not None:
            target = label_block.get(item.label)
            if target is None:
                problem = problem or (
                    f"call to undefined label L{item.label}"
                )
            else:
                roots.add(target)
        elif isinstance(item, AConSite):
            target = label_block.get(item.label)
            if target is not None:
                roots.add(target)  # address taken: branch tables etc.

    reachable: Set[int] = set()
    stack = list(roots)
    while stack:
        bid = stack.pop()
        if bid in reachable:
            continue
        reachable.add(bid)
        stack.extend(blocks[bid].succs)

    return Cfg(
        buffer=buffer,
        blocks=blocks,
        block_of=block_of,
        label_block=label_block,
        skip_spans=frozenset(spans),
        roots=tuple(sorted(roots)),
        reachable=frozenset(reachable),
        item_effects=effects,
        disjoint_bases=disjoint_bases,
        ok=not problem,
        reason=problem,
    )


# ---------------------------------------------------------------------------
# DOT rendering (compile --dump-cfg).
# ---------------------------------------------------------------------------


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(
    cfg: Cfg,
    live_in: Optional[Dict[int, FrozenSet]] = None,
    live_out: Optional[Dict[int, FrozenSet]] = None,
    title: str = "cfg",
) -> str:
    """Graphviz DOT for the CFG, annotated with per-block liveness."""
    from repro.core.codegen.parser_rt import _render_item

    def regs(facts) -> str:
        body = ",".join(f"r{n}" for n in sorted(f for f in facts if f >= 0))
        if any(f < 0 for f in facts):  # the CC pseudo-register
            body = body + ",cc" if body else "cc"
        return body or "-"

    lines = [f'digraph "{_dot_escape(title)}" {{']
    lines.append('  node [shape=box, fontname="monospace", fontsize=9];')
    for block in cfg.blocks:
        rows = [f"B{block.bid}" + ("" if block.bid in cfg.reachable
                                   else " (unreachable)")]
        if live_in is not None:
            rows.append(f"live-in: {regs(live_in.get(block.bid, ()))}")
        for _, item in cfg.block_items(block):
            rows.append(_render_item(item).strip())
        if live_out is not None:
            rows.append(f"live-out: {regs(live_out.get(block.bid, ()))}")
        if block.halts:
            rows.append("(halt)")
        elif block.exits:
            rows.append("(exit)")
        label = "\\l".join(_dot_escape(row) for row in rows) + "\\l"
        style = "" if block.bid in cfg.reachable else ", style=dashed"
        lines.append(f'  b{block.bid} [label="{label}"{style}];')
    for block in cfg.blocks:
        for succ in block.succs:
            lines.append(f"  b{block.bid} -> b{succ};")
        if block.exits:
            lines.append(
                f'  b{block.bid} -> exit [style=dotted];'
            )
    if any(block.exits for block in cfg.blocks):
        lines.append('  exit [shape=ellipse, label="exit"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
