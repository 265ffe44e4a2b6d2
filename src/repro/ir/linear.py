"""Prefix linearization of IF trees, and the IF token stream.

"The input to the code generator is actually a linearized tree
structure.  The process of parsing the IF by the code generator is in
fact the detection and transformation of subtrees which correspond to
valid computations." (paper section 6)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, List, Mapping, Optional, Sequence

from repro.errors import IFError
from repro.ir.tree import IFTree, Leaf, Node, SPLICE


@dataclass(slots=True, unsafe_hash=True)
class IFToken:
    """One symbol of the linearized IF.

    ``symbol`` is a grammar symbol: an operator, a terminal, or a
    register-class non-terminal (base registers assigned by the shaper
    appear directly in the IF).  ``value`` carries the attribute for
    terminals and the register number for register references.  ``sem``
    is runtime-only: when the skeletal parser prefixes a reduced result
    back onto its input, the translation-stack value rides along here.

    ``code`` is the interned symbol code: the dense parse-table column
    assigned to ``symbol`` at table-construction time.  The skeletal
    parser runs entirely on codes (pure list indexing, no string
    hashing); a token whose code is ``None`` is encoded once on intake.
    Codes are an identity of the *table build*, not of the token, so
    they do not participate in equality or repr.

    Tokens are not ``frozen`` (nothing assigns to one after construction)
    because a frozen ``__init__`` costs two to three times as much, and
    both linearization and the skeletal parser build one per symbol.
    """

    symbol: str
    value: Optional[int] = None
    sem: Any = None
    code: Optional[int] = field(default=None, compare=False, repr=False)

    def __str__(self) -> str:
        if self.value is None:
            return self.symbol
        return f"{self.symbol}.{self.value}"


def linearize(
    trees: Iterable[IFTree],
    codes: Optional[Mapping[str, int]] = None,
) -> List[IFToken]:
    """Preorder token stream for a sequence of statement trees.

    ``codes`` (symbol -> interned table column) stamps each token's
    ``code`` at creation so the code generator's intake pass can skip
    re-encoding the stream.
    """
    out: List[IFToken] = []
    append = out.append
    code = (codes if codes is not None else {}).get

    def emit(tree: Node) -> None:
        op = tree.op
        if op != SPLICE:
            append(IFToken(op, None, None, code(op)))
        for child in tree.children:
            if isinstance(child, Leaf):
                symbol = child.symbol
                append(IFToken(symbol, child.value, None, code(symbol)))
            else:
                emit(child)

    for tree in trees:
        if isinstance(tree, Leaf):
            append(IFToken(tree.symbol, tree.value, None, code(tree.symbol)))
        else:
            emit(tree)
    return out


def delinearize(
    tokens: Sequence[IFToken],
    arity_of,
) -> List[IFTree]:
    """Rebuild trees from a prefix stream (inverse of :func:`linearize`).

    ``arity_of(symbol) -> int | None`` must give the child count for
    operator symbols and ``None`` for leaves.  Used by tests to check the
    linearization round-trip and by diagnostics to show the subtree a
    stuck parse was looking at.
    """
    pos = 0

    def build() -> IFTree:
        nonlocal pos
        if pos >= len(tokens):
            raise IFError("truncated IF token stream")
        tok = tokens[pos]
        pos += 1
        arity = arity_of(tok.symbol)
        if arity is None:
            if tok.value is None:
                raise IFError(f"leaf token {tok.symbol!r} has no value")
            return Leaf(tok.symbol, tok.value)
        children = tuple(build() for _ in range(arity))
        return Node(tok.symbol, children)

    trees: List[IFTree] = []
    while pos < len(tokens):
        trees.append(build())
    return trees


def render_stream(tokens: Sequence[IFToken], limit: int = 20) -> str:
    """Short rendering of a token stream for error messages."""
    shown = " ".join(str(t) for t in tokens[:limit])
    if len(tokens) > limit:
        shown += f" ... (+{len(tokens) - limit} more)"
    return shown
