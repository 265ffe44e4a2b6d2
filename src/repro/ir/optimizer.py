"""The IF optimizer: common-subexpression detection (paper section 4.4).

"All CSEs are detected, and their use counts established, by an IF
optimizer."  This pass runs over each routine's statement trees at
basic-block granularity:

* candidate subtrees are *pure* value computations (loads, arithmetic,
  constants);
* availability is killed by assignments that may overlap a candidate's
  loads (conservatively: same base register and overlapping bytes; any
  write through a pointer kills everything) and by calls;
* a candidate seen ``n >= 2`` times while continuously available becomes
  a CSE: the first occurrence is wrapped in ``make_common`` (with a
  shaper-allocated home temporary and use count ``n - 1``) and the rest
  become ``use_common`` references.

Overlapping groups are resolved greedily, larger subtrees first -- the
paper's optimizer is not described in detail, so this is the documented
conservative reading.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.ir.tree import IFTree, Leaf, Node

#: Operators whose value depends only on their operands (no side
#: effects, no condition-code output consumed elsewhere).
PURE_OPS = frozenset(
    {
        "fullword", "halfword", "byteword", "addr",
        "iadd", "isub", "imult", "idiv", "imod",
        "ineg", "iabs", "iodd", "imax", "imin", "incr", "decr",
        "l_shift", "r_shift", "pos_constant", "neg_constant",
        "boolean_and", "boolean_or", "boolean_not",
    }
)

_MEMORY_OPS = {"fullword": 4, "halfword": 2, "byteword": 1}

#: Statements whose execution may change any memory the block can see.
_CALL_OPS = frozenset(
    {
        "procedure_call", "function_call", "block_assign", "var_assign",
        "set_bit_value", "clear_bit_value", "set_clear", "set_union",
        "set_intersect",
    }
)

#: Statements that end a basic block.
_BOUNDARY_OPS = frozenset({"label_def", "branch_op", "procedure_entry",
                           "procedure_exit"})

Path = Tuple[int, ...]


@dataclass(frozen=True)
class _Read:
    """One memory location a candidate depends on; base < 0 = unknown."""

    base: int
    dsp: int
    size: int


_UNKNOWN_READ = _Read(-1, 0, 0)


def _reads(tree: IFTree, out: Set[_Read]) -> None:
    if isinstance(tree, Leaf):
        return
    if tree.op in _MEMORY_OPS:
        size = _MEMORY_OPS[tree.op]
        # (dsp, base) or (index, dsp, base); base may be a subtree.
        base = tree.children[-1]
        dsp = tree.children[-2]
        indexed = len(tree.children) == 3
        if isinstance(base, Leaf) and isinstance(dsp, Leaf):
            if indexed:
                # Unknown element: the whole base area may be read.
                out.add(_Read(base.value, -1, 0))
            else:
                out.add(_Read(base.value, dsp.value, size))
        else:
            out.add(_UNKNOWN_READ)
    for child in tree.children:
        _reads(child, out)


@dataclass
class _Write:
    """One store's effect: base < 0 means "anything"; dsp < 0 means the
    whole base-register area."""

    base: int
    dsp: int
    size: int

    def kills(self, read: _Read) -> bool:
        if self.base < 0 or read.base < 0:
            return True
        if self.base != read.base:
            return False
        if self.dsp < 0 or read.dsp < 0:
            return True
        return self.dsp < read.dsp + read.size and \
            read.dsp < self.dsp + self.size


def _write_of(assign: Node) -> _Write:
    target = assign.children[0]
    if not isinstance(target, Node) or target.op not in _MEMORY_OPS:
        return _Write(-1, 0, 0)
    size = _MEMORY_OPS[target.op]
    base = target.children[-1]
    dsp = target.children[-2]
    if not isinstance(base, Leaf):
        return _Write(-1, 0, 0)
    if len(target.children) == 3 or not isinstance(dsp, Leaf):
        return _Write(base.value, -1, 0)
    return _Write(base.value, dsp.value, size)


@dataclass
class _Group:
    key: str
    tree: IFTree
    size: int
    occurrences: List[Tuple[int, Path]] = field(default_factory=list)
    reads: Set[_Read] = field(default_factory=set)


#: One candidate: (path, subtree, key, size in tokens).
_Candidate = Tuple[Path, IFTree, str, int]


def _walk(
    tree: IFTree, path: Path, out: List[_Candidate], collect: bool = True
) -> Tuple[bool, int, str, bool]:
    """``(pure, size, key, contains_call)`` of ``tree`` in one bottom-up
    walk, appending its candidates to ``out`` in preorder.

    Candidates are pure subtrees of size >= 4 tokens (cheaper ones
    aren't worth a register's pressure); with ``collect`` false the
    subtree itself is skipped but its descendants are not.
    """
    if isinstance(tree, Leaf):
        return True, 1, f"{tree.symbol}:{tree.value}", False
    start = len(out)
    pure = tree.op in PURE_OPS
    calls = tree.op in _CALL_OPS
    size = 1
    keys = []
    for i, child in enumerate(tree.children):
        c_pure, c_size, c_key, c_calls = _walk(child, path + (i,), out)
        pure = pure and c_pure
        size += c_size
        keys.append(c_key)
        calls = calls or c_calls
    key = f"{tree.op}({','.join(keys)})"
    if collect and pure and size >= 4:
        out.insert(start, (path, tree, key, size))
    return pure, size, key, calls


def _statement_candidates(stmt: IFTree, out: List[_Candidate]) -> bool:
    """Candidates of one statement; returns whether it contains a call.

    The *target reference* of an assignment is a store shape the grammar
    matches literally (``assign fullword dsp.1 r.1 r.2``), so it must
    never be replaced -- but its index expression and pointer base
    subtrees are ordinary value computations and are fair game.
    """
    if isinstance(stmt, Node) and stmt.op == "assign":
        target, value = stmt.children
        calls = _walk(target, (0,), out, collect=False)[3]
        return _walk(value, (1,), out)[3] or calls
    return _walk(stmt, (), out)[3]


def _replace(tree: IFTree, path: Path, new: IFTree) -> IFTree:
    if not path:
        return new
    assert isinstance(tree, Node)
    children = list(tree.children)
    children[path[0]] = _replace(children[path[0]], path[1:], new)
    return Node(tree.op, tuple(children))


class CseOptimizer:
    """Block-level CSE over one routine's statements."""

    def __init__(self, frame, next_cse_id: int = 1,
                 base_reg: int = 13):
        self.frame = frame
        self.next_cse_id = next_cse_id
        self.base_reg = base_reg
        self.cse_count = 0

    def run(self, statements: List[IFTree]) -> List[IFTree]:
        out: List[IFTree] = []
        block: List[IFTree] = []
        for stmt in statements:
            boundary = (
                isinstance(stmt, Node) and stmt.op in _BOUNDARY_OPS
            )
            if boundary:
                out.extend(self._optimize_block(block))
                block = []
                out.append(stmt)
            else:
                block.append(stmt)
        out.extend(self._optimize_block(block))
        return out

    # ---- one basic block ------------------------------------------------------------

    def _optimize_block(self, block: List[IFTree]) -> List[IFTree]:
        if len(block) < 1:
            return block
        groups = self._find_groups(block)
        chosen = self._choose(groups)
        if not chosen:
            return block
        return self._rewrite(block, chosen)

    def _find_groups(self, block: List[IFTree]) -> List[_Group]:
        available: Dict[str, _Group] = {}
        finished: List[_Group] = []
        for stmt_idx, stmt in enumerate(block):
            candidates: List[_Candidate] = []
            calls = _statement_candidates(stmt, candidates)
            # Reads first: the RHS of an assignment is evaluated before
            # the store happens.
            for path, tree, key, size in candidates:
                group = available.get(key)
                if group is None:
                    group = _Group(key, tree, size)
                    _reads(tree, group.reads)
                    available[key] = group
                group.occurrences.append((stmt_idx, path))
            # Then the statement's effects.
            if calls:
                finished.extend(available.values())
                available.clear()
                continue
            if isinstance(stmt, Node) and stmt.op == "assign":
                write = _write_of(stmt)
                for key in list(available):
                    group = available[key]
                    if any(write.kills(r) for r in group.reads):
                        finished.append(group)
                        del available[key]
        finished.extend(available.values())
        return [g for g in finished if len(g.occurrences) >= 2]

    @staticmethod
    def _choose(groups: List[_Group]) -> List[_Group]:
        """Greedy non-overlapping selection, larger subtrees first."""
        def overlaps(a: Tuple[int, Path], b: Tuple[int, Path]) -> bool:
            if a[0] != b[0]:
                return False
            shorter, longer = sorted((a[1], b[1]), key=len)
            return longer[: len(shorter)] == shorter

        chosen: List[_Group] = []
        taken: List[Tuple[int, Path]] = []
        for group in sorted(groups, key=lambda g: -g.size):
            if any(
                overlaps(occ, t)
                for occ in group.occurrences
                for t in taken
            ):
                continue
            chosen.append(group)
            taken.extend(group.occurrences)
        return chosen

    def _rewrite(
        self, block: List[IFTree], chosen: List[_Group]
    ) -> List[IFTree]:
        out = list(block)
        # Deeper paths first within a statement so shallower replacements
        # don't invalidate deeper paths.
        edits: List[Tuple[int, Path, IFTree]] = []
        for group in chosen:
            cse_id = self.next_cse_id
            self.next_cse_id += 1
            self.cse_count += 1
            home = self.frame.alloc_temp(4)
            uses = len(group.occurrences) - 1
            first_idx, first_path = group.occurrences[0]
            make = Node(
                "make_common",
                (
                    Leaf("cse", cse_id),
                    Leaf("cnt", uses),
                    Node(
                        "fullword",
                        (Leaf("dsp", home), Leaf("r", self.base_reg)),
                    ),
                    group.tree,
                ),
            )
            edits.append((first_idx, first_path, make))
            for idx, path in group.occurrences[1:]:
                edits.append(
                    (idx, path, Node("use_common", (Leaf("cse", cse_id),)))
                )
        edits.sort(key=lambda e: (e[0], -len(e[1])))
        for idx, path, new in edits:
            out[idx] = _replace(out[idx], path, new)
        return out


def optimize_routine(
    statements: List[IFTree],
    frame,
    next_cse_id: int = 1,
    base_reg: int = 13,
) -> Tuple[List[IFTree], int, int]:
    """CSE-optimize one routine.

    Returns (new statements, next free cse id, CSEs introduced).
    """
    optimizer = CseOptimizer(frame, next_cse_id, base_reg)
    result = optimizer.run(statements)
    return result, optimizer.next_cse_id, optimizer.cse_count
