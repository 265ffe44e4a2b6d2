"""Canonical LR(0) collection ("the parsing automaton" of Table 1.iii)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Tuple

from repro.core import buildstats
from repro.core.grammar import SDTS
from repro.core.lr.items import Item, closure


@dataclass
class LRAutomaton:
    """States (as closed item sets) and their transitions.

    ``transitions[(state, symbol)] -> state`` covers both terminal shifts
    and non-terminal gotos; the distinction only matters to the runtime,
    which treats gotos as shifts of prefixed non-terminals (paper section
    3: "prefix LHS to input stream").  ``complete[state]`` lists the ids
    of the productions whose item is complete in that state, in pid order.
    """

    sdts: SDTS
    states: List[FrozenSet[Item]] = field(default_factory=list)
    kernels: List[FrozenSet[Item]] = field(default_factory=list)
    transitions: Dict[Tuple[int, str], int] = field(default_factory=dict)
    complete: List[List[int]] = field(default_factory=list)

    @property
    def nstates(self) -> int:
        return len(self.states)


def build_automaton(sdts: SDTS) -> LRAutomaton:
    """Depth-first construction of the canonical LR(0) collection.

    States are identified by their *kernel* item sets, so the closure of
    each state is computed exactly once, and one pass over a closed state
    partitions its items by the symbol after the dot: each bucket is the
    kernel of that symbol's goto state.  Symbols are visited in sorted
    order off a work stack, which fixes the state numbering.
    """
    buildstats.bump("automaton_builds")
    automaton = LRAutomaton(sdts)
    rhs_of = [prod.rhs for prod in sdts.productions]
    start_kernel: FrozenSet[Item] = frozenset({(0, 0)})
    index: Dict[FrozenSet[Item], int] = {start_kernel: 0}
    automaton.kernels.append(start_kernel)
    automaton.states.append(closure(sdts, start_kernel))
    automaton.complete.append([])

    work = [0]
    while work:
        state = work.pop()
        buckets: Dict[str, List[Item]] = {}
        complete = []
        for pid, dot in automaton.states[state]:
            rhs = rhs_of[pid]
            if dot < len(rhs):
                buckets.setdefault(rhs[dot], []).append((pid, dot + 1))
            else:
                complete.append(pid)
        complete.sort()
        automaton.complete[state] = complete
        for symbol in sorted(buckets):
            kernel = frozenset(buckets[symbol])
            target = index.get(kernel)
            if target is None:
                target = len(automaton.states)
                index[kernel] = target
                automaton.kernels.append(kernel)
                automaton.states.append(closure(sdts, kernel))
                automaton.complete.append([])
                work.append(target)
            automaton.transitions[(state, symbol)] = target
    return automaton
