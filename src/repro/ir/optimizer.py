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
from operator import attrgetter
from typing import Dict, Iterable, List, Set, Tuple

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

#: The widest memory operand: a read at ``dsp`` can overlap a store at
#: ``d`` only if ``d - _WIDEST < dsp``.
_WIDEST = max(_MEMORY_OPS.values())


@dataclass(slots=True, unsafe_hash=True)
class _Read:
    """One memory location a candidate depends on; base < 0 = unknown,
    dsp < 0 = anywhere in the base register's area."""

    base: int
    dsp: int
    size: int


_UNKNOWN_READ = _Read(-1, 0, 0)


@dataclass(slots=True)
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


@dataclass(slots=True)
class _Group:
    key: int
    #: creation order within the block: the order of ``available``.
    seq: int
    tree: IFTree
    size: int
    reads: Tuple[_Read, ...]
    occurrences: List[Tuple[int, Path]] = field(default_factory=list)


#: One candidate: (path, subtree, key, size in tokens, memory reads).
_Candidate = Tuple[Path, IFTree, int, int, Tuple[_Read, ...]]

#: What one walk learns of a subtree: (pure, size, key, contains_call,
#: memory reads).
_Facts = Tuple[bool, int, int, bool, Tuple[_Read, ...]]


_by_seq = attrgetter("seq")
_EMPTY: Dict = {}


class _Available:
    """The groups available in one block, indexed by what they read so
    that a store visits only the groups it may kill: ``_index`` maps a
    base register to displacements to the groups reading there
    (displacement -1: anywhere in the area; base -1: an unknown
    address)."""

    def __init__(self) -> None:
        self.groups: Dict[int, _Group] = {}
        self._index: Dict[int, Dict[int, Dict[int, _Group]]] = {}

    def add(self, group: _Group) -> None:
        key = group.key
        self.groups[key] = group
        index = self._index
        for read in group.reads:
            areas = index.get(read.base)
            if areas is None:
                areas = index[read.base] = {}
            bucket = areas.get(read.dsp)
            if bucket is None:
                bucket = areas[read.dsp] = {}
            bucket[key] = group

    def clear(self) -> List[_Group]:
        """Remove every group, in creation order."""
        groups = list(self.groups.values())
        self.groups.clear()
        self._index.clear()
        return groups

    def kill(self, write: _Write) -> List[_Group]:
        """Remove the groups ``write`` kills, in creation order."""
        index = self._index
        if write.base < 0:
            suspects: Iterable[_Group] = self.groups.values()
        else:
            found: Dict[int, _Group] = {}
            for bucket in index.get(-1, _EMPTY).values():
                found.update(bucket)
            areas = index.get(write.base)
            if areas:
                if write.dsp < 0:
                    for bucket in areas.values():
                        found.update(bucket)
                else:
                    found.update(areas.get(-1, _EMPTY))
                    for dsp in range(write.dsp - _WIDEST + 1,
                                     write.dsp + write.size):
                        bucket = areas.get(dsp)
                        if bucket:
                            found.update(bucket)
            if not found:
                return []
            suspects = sorted(found.values(), key=_by_seq)
        killed = []
        for group in suspects:
            for read in group.reads:
                if write.kills(read):
                    killed.append(group)
                    break
        groups = self.groups
        for group in killed:
            key = group.key
            del groups[key]
            for read in group.reads:
                index[read.base][read.dsp].pop(key, None)
        return killed


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
        #: subtree shape -> key, for the routine's lifetime.
        self._ids: Dict[tuple, int] = {}

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

    def _walk(self, tree: Node, path: Path, out: List[_Candidate],
              collect: bool = True) -> _Facts:
        """The facts of ``tree`` in one bottom-up walk, appending its
        candidates to ``out`` in preorder.

        A subtree's key is a hash-consed integer: equal subtrees get
        equal keys, and a node's key is looked up from its operator, its
        leaves' symbols and values and its other children's keys, so no
        subtree is rendered or walked twice.  A leaf contributes a
        string and an integer, a node child one integer, so distinct
        shapes never share a lookup.

        Candidates are pure subtrees of size >= 4 tokens (cheaper ones
        aren't worth a register's pressure); with ``collect`` false the
        subtree itself is skipped but its descendants are not.
        """
        start = len(out)
        op = tree.op
        children = tree.children
        pure = op in PURE_OPS
        calls = op in _CALL_OPS
        size = 1
        reads: Tuple[_Read, ...] = ()
        key = [op]
        for i, child in enumerate(children):
            if isinstance(child, Leaf):
                size += 1
                key.append(child.symbol)
                key.append(child.value)
                continue
            c_pure, c_size, c_key, c_calls, c_reads = self._walk(
                child, path + (i,), out
            )
            pure = pure and c_pure
            size += c_size
            key.append(c_key)
            calls = calls or c_calls
            if c_reads:
                reads = reads + c_reads if reads else c_reads
        if op in _MEMORY_OPS:
            # (dsp, base) or (index, dsp, base); base may be a subtree.
            base = children[-1]
            dsp = children[-2]
            if isinstance(base, Leaf) and isinstance(dsp, Leaf):
                if len(children) == 3:
                    # Unknown element: the whole base area may be read.
                    read = _Read(base.value, -1, 0)
                else:
                    read = _Read(base.value, dsp.value, _MEMORY_OPS[op])
            else:
                read = _UNKNOWN_READ
            reads = (read,) + reads
        ids = self._ids
        key_id = ids.setdefault(tuple(key), len(ids))
        if collect and pure and size >= 4:
            out.insert(start, (path, tree, key_id, size, reads))
        return pure, size, key_id, calls, reads

    def _statement(self, stmt: IFTree, out: List[_Candidate]) -> bool:
        """Candidates of one statement; returns whether it contains a
        call.

        The *target reference* of an assignment is a store shape the
        grammar matches literally (``assign fullword dsp.1 r.1 r.2``), so
        it must never be replaced -- but its index expression and
        pointer base subtrees are ordinary value computations and are
        fair game.
        """
        if isinstance(stmt, Leaf):
            return False
        if stmt.op == "assign":
            target, value = stmt.children
            calls = False
            if isinstance(target, Node):
                calls = self._walk(target, (0,), out, collect=False)[3]
            if isinstance(value, Node):
                calls = self._walk(value, (1,), out)[3] or calls
            return calls
        return self._walk(stmt, (), out)[3]

    def _optimize_block(self, block: List[IFTree]) -> List[IFTree]:
        if len(block) < 1:
            return block
        groups = self._find_groups(block)
        chosen = self._choose(groups)
        if not chosen:
            return block
        return self._rewrite(block, chosen)

    def _find_groups(self, block: List[IFTree]) -> List[_Group]:
        available = _Available()
        finished: List[_Group] = []
        seq = 0
        for stmt_idx, stmt in enumerate(block):
            candidates: List[_Candidate] = []
            calls = self._statement(stmt, candidates)
            # Reads first: the RHS of an assignment is evaluated before
            # the store happens.
            for path, tree, key, size, reads in candidates:
                group = available.groups.get(key)
                if group is None:
                    group = _Group(key, seq, tree, size, reads)
                    seq += 1
                    available.add(group)
                group.occurrences.append((stmt_idx, path))
            # Then the statement's effects.
            if calls:
                finished.extend(available.clear())
            elif isinstance(stmt, Node) and stmt.op == "assign":
                finished.extend(available.kill(_write_of(stmt)))
        finished.extend(available.clear())
        return [g for g in finished if len(g.occurrences) >= 2]

    @staticmethod
    def _choose(groups: List[_Group]) -> List[_Group]:
        """Greedy non-overlapping selection, larger subtrees first.

        Two occurrences overlap when they are in one statement and one
        path is a prefix of the other: ``taken`` holds the chosen
        occurrences, ``covered`` every prefix of their paths."""
        chosen: List[_Group] = []
        taken: Set[Tuple[int, Path]] = set()
        covered: Set[Tuple[int, Path]] = set()

        def overlaps(stmt: int, path: Path) -> bool:
            if (stmt, path) in covered:
                return True
            return any((stmt, path[:k]) in taken for k in range(len(path)))

        for group in sorted(groups, key=lambda g: -g.size):
            if any(overlaps(*occ) for occ in group.occurrences):
                continue
            chosen.append(group)
            for stmt, path in group.occurrences:
                taken.add((stmt, path))
                covered.update(
                    (stmt, path[:k]) for k in range(len(path) + 1)
                )
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
