"""IF trees: operator nodes over attribute and register leaves."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple, Union

from repro.errors import IFError
from repro.ir import ops


@dataclass(slots=True, unsafe_hash=True)
class Leaf:
    """A leaf: a shaper-set terminal (``dsp``/``lbl``/...) or a register
    reference (symbol = a register-class non-terminal such as ``r``, value
    = the hardware register number assigned by the shaper).

    Leaves and nodes compare and hash by their fields and nothing assigns
    to one after construction, but they are not ``frozen``: a frozen
    dataclass's ``__init__`` sets each field through
    ``object.__setattr__``, at two to three times the cost, and the IF
    generator and the CSE build one per IF symbol."""

    symbol: str
    value: int

    def __str__(self) -> str:
        return f"{self.symbol}:{self.value}"


@dataclass(slots=True, unsafe_hash=True)
class Node:
    """An operator node."""

    op: str
    children: Tuple[Union["Node", Leaf], ...] = ()

    def __str__(self) -> str:
        if not self.children:
            return self.op
        inner = ", ".join(str(c) for c in self.children)
        return f"{self.op}({inner})"


IFTree = Union[Node, Leaf]

#: A splice node emits *no* token of its own -- its children are inlined
#: into the prefix stream.  Needed for paper-style productions whose
#: right-hand sides start with a terminal, like ``r.1 ::= cond.1 cc.1``
#: (production 128): the materialized boolean is the splice of a ``cond``
#: leaf and an ``icompare`` subtree.
SPLICE = "__splice__"


def splice(*children: IFTree) -> Node:
    return Node(SPLICE, tuple(children))


def node(op: str, *children: IFTree) -> Node:
    """Build a validated operator node."""
    n = Node(op, tuple(children))
    arities = ops.OPERATOR_ARITIES.get(op)
    if arities is not None and len(children) not in arities:
        raise IFError(
            f"operator {op!r} takes {sorted(arities)} children, "
            f"got {len(children)}"
        )
    return n


def validate(tree: IFTree, register_classes: Tuple[str, ...] = ("r",)) -> None:
    """Check every node against the standard vocabulary.

    Custom operators (unknown names) are allowed -- the code generator's
    grammar is the real gatekeeper -- but known operators must be used
    with a known arity, and leaves must be standard terminals or register
    references.
    """
    if isinstance(tree, Leaf):
        if not ops.is_terminal(tree.symbol) and tree.symbol not in register_classes:
            raise IFError(f"unknown leaf symbol {tree.symbol!r}")
        return
    if tree.op == SPLICE:
        for child in tree.children:
            validate(child, register_classes)
        return
    arities = ops.OPERATOR_ARITIES.get(tree.op)
    if arities is not None and len(tree.children) not in arities:
        raise IFError(
            f"operator {tree.op!r} has {len(tree.children)} children, "
            f"expected one of {sorted(arities)}"
        )
    for child in tree.children:
        validate(child, register_classes)


def walk(tree: IFTree) -> Iterator[IFTree]:
    """Preorder traversal."""
    yield tree
    if isinstance(tree, Node):
        for child in tree.children:
            yield from walk(child)


def size(tree: IFTree) -> int:
    return sum(1 for _ in walk(tree))


def render(tree: IFTree, indent: int = 0) -> str:
    """Multi-line pretty form for diagnostics."""
    pad = "  " * indent
    if isinstance(tree, Leaf):
        return f"{pad}{tree}"
    lines: List[str] = [f"{pad}{tree.op}"]
    for child in tree.children:
        lines.append(render(child, indent + 1))
    return "\n".join(lines)
