"""LR(0) items and closure.

The SDTS grammar has no epsilon productions (the spec parser rejects empty
right-hand sides), which keeps closure computation simple: no nullable
analysis is ever needed.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.core.grammar import SDTS, Production

#: An LR(0) item is (production id, dot position).
Item = Tuple[int, int]


def item_next_symbol(sdts: SDTS, item: Item) -> Optional[str]:
    """The symbol after the dot, or ``None`` for a complete item."""
    pid, dot = item
    rhs = sdts.productions[pid].rhs
    return rhs[dot] if dot < len(rhs) else None


def closure(sdts: SDTS, kernel: Iterable[Item]) -> FrozenSet[Item]:
    """LR(0) closure of a kernel item set.

    Each non-terminal is expanded at most once: expanding it adds the
    initial item of every production it heads.
    """
    by_lhs = _productions_by_lhs(sdts)
    prods = sdts.productions
    items = set(kernel)
    todo = [
        rhs[dot] for pid, dot in items if dot < len(rhs := prods[pid].rhs)
    ]
    expanded = set()
    while todo:
        sym = todo.pop()
        if sym in expanded:
            continue
        expanded.add(sym)
        for prod in by_lhs.get(sym, ()):
            items.add((prod.pid, 0))
            todo.append(prod.rhs[0])
    return frozenset(items)


def _productions_by_lhs(sdts: SDTS) -> Dict[str, List[Production]]:
    """Per-SDTS memoized LHS index (closure is called once per state).

    The memo lives on the SDTS instance itself -- an id()-keyed global
    cache would hand a *recycled* id the previous grammar's index.
    """
    cached = getattr(sdts, "_by_lhs_index", None)
    if cached is not None:
        return cached
    by_lhs: Dict[str, List[Production]] = {}
    for prod in sdts.productions:
        by_lhs.setdefault(prod.lhs, []).append(prod)
    sdts._by_lhs_index = by_lhs  # type: ignore[attr-defined]
    return by_lhs
