"""Unit tests: LR(0) automaton and SLR(1) construction."""

from pathlib import Path

import pytest

from repro.core import tables as T
from repro.core.grammar import END_MARKER, build_sdts
from repro.core.lr.automaton import build_automaton
from repro.core.lr.items import closure, item_next_symbol
from repro.core.lr.slr import (
    build_parse_tables,
    first_sets,
    follow_sets,
)
from repro.core.speclang.parser import parse_spec
from repro.core.speclang.semops import merged_semops
from repro.core.speclang.typecheck import check_spec
from repro.machines.s370 import spec as s370_spec
from repro.machines.toy import spec as toy_spec

from helpers import TINY_SPEC
from test_property_grammars import build_spec

FIXTURES = Path(__file__).parent / "fixtures" / "speclint"

AMBIG_SPEC = """
$Non-terminals
 r = register
$Terminals
 dsp
$Operators
 iadd, fullword
$Opcodes
 a, ar, l
$Constants
 using, modifies
 zero = 0
$Productions
r.2 ::= fullword dsp.1 r.1
 using r.2
 l r.2,dsp.1(zero,r.1)
r.1 ::= iadd r.1 r.2
 modifies r.1
 ar r.1,r.2
r.2 ::= iadd r.2 fullword dsp.1 r.1
 modifies r.2
 a r.2,dsp.1(zero,r.1)
lambda ::= iadd r.1 r.2
 ar r.1,r.2
"""


def sdts_of(text, semops=None):
    spec = parse_spec(text)
    return build_sdts(spec, check_spec(spec, semops))


# ---- the textbook construction, as a reference ------------------------------


def reference_closure(sdts, kernel):
    """Closure one item at a time, re-checking every production."""
    todo = list(kernel)
    seen = set(todo)
    while todo:
        sym = item_next_symbol(sdts, todo.pop())
        if sym is None or not sdts.is_nonterminal(sym):
            continue
        for prod in sdts.productions:
            if prod.lhs == sym and (prod.pid, 0) not in seen:
                seen.add((prod.pid, 0))
                todo.append((prod.pid, 0))
    return frozenset(seen)


def goto_kernel(sdts, items, symbol):
    """Kernel of the goto state: advance the dot over ``symbol``."""
    return frozenset(
        (pid, dot + 1)
        for pid, dot in items
        if item_next_symbol(sdts, (pid, dot)) == symbol
    )


def reference_automaton(sdts):
    """``closure`` plus one ``goto_kernel`` scan per outgoing symbol,
    numbering states in the work-stack order ``build_automaton`` keeps."""
    states = [reference_closure(sdts, {(0, 0)})]
    kernels = [frozenset({(0, 0)})]
    transitions = {}
    work = [0]
    while work:
        state = work.pop()
        items = states[state]
        symbols = {item_next_symbol(sdts, item) for item in items} - {None}
        for symbol in sorted(symbols):
            kernel = goto_kernel(sdts, items, symbol)
            if kernel not in kernels:
                kernels.append(kernel)
                states.append(reference_closure(sdts, kernel))
                work.append(len(states) - 1)
            transitions[(state, symbol)] = kernels.index(kernel)
    return states, kernels, transitions


def _s370(variant):
    semops = merged_semops(s370_spec.extra_semops())
    return lambda: sdts_of(s370_spec.spec_text(variant), semops)


def _text(text):
    return lambda: sdts_of(text)


#: Every shipped grammar, every speclint fixture, and every grammar the
#: generator of ``test_property_grammars`` can draw.
REFERENCE_GRAMMARS = {
    **{f"s370:{v}": _s370(v) for v in s370_spec.VARIANTS},
    "toy": _text(toy_spec.spec_text()),
    "tiny": _text(TINY_SPEC),
    "ambig": _text(AMBIG_SPEC),
    **{
        f"speclint:{path.stem}": _text(path.read_text())
        for path in sorted(FIXTURES.glob("*.spec"))
    },
    **{
        f"random:{u}u{b}b{'f' if fused else ''}": _text(
            build_spec(u, b, fused))
        for u in range(4)
        for b in range(1, 5)
        for fused in (False, True)
    },
}


@pytest.mark.parametrize("name", sorted(REFERENCE_GRAMMARS))
def test_automaton_matches_textbook_construction(name):
    sdts = REFERENCE_GRAMMARS[name]()
    automaton = build_automaton(sdts)
    states, kernels, transitions = reference_automaton(sdts)
    assert automaton.kernels == kernels
    assert automaton.states == states
    assert automaton.transitions == transitions
    assert automaton.complete == [
        sorted(pid for pid, dot in items
               if item_next_symbol(sdts, (pid, dot)) is None)
        for items in states
    ]


class TestItems:
    def test_closure_adds_nonterminal_productions(self):
        sdts = sdts_of(TINY_SPEC)
        items = closure(sdts, {(0, 0)})
        pids = {pid for pid, dot in items if dot == 0}
        # goal -> seq -> lambda productions -> everything reachable.
        lambda_pids = {p.pid for p in sdts.productions if p.is_lambda}
        assert lambda_pids <= pids

    def test_goto_advances_dot(self):
        sdts = sdts_of(TINY_SPEC)
        automaton = build_automaton(sdts)
        store_pid = [
            p.pid for p in sdts.user_productions if p.rhs[0] == "store"
        ][0]
        target = automaton.transitions[(0, "store")]
        assert (store_pid, 1) in automaton.kernels[target]

    def test_item_next_symbol_complete(self):
        sdts = sdts_of(TINY_SPEC)
        prod = sdts.user_productions[0]
        assert item_next_symbol(sdts, (prod.pid, len(prod.rhs))) is None


class TestAutomaton:
    def test_deterministic_transitions(self):
        sdts = sdts_of(TINY_SPEC)
        automaton = build_automaton(sdts)
        # every (state, symbol) key appears once by construction;
        # target states must be valid indices.
        for (state, _sym), target in automaton.transitions.items():
            assert 0 <= state < automaton.nstates
            assert 0 <= target < automaton.nstates

    def test_states_reachable_and_distinct(self):
        sdts = sdts_of(TINY_SPEC)
        automaton = build_automaton(sdts)
        assert automaton.nstates == len(set(automaton.kernels))
        assert automaton.nstates > 5

    def test_complete_items_found(self):
        sdts = sdts_of(TINY_SPEC)
        automaton = build_automaton(sdts)
        total = sum(len(complete) for complete in automaton.complete)
        assert total >= len(sdts.productions) - 1  # goal completes too


class TestFirstFollow:
    def test_first_of_terminal_is_itself(self):
        sdts = sdts_of(TINY_SPEC)
        first = first_sets(sdts)
        assert first["iadd"] == {"iadd"}

    def test_first_of_nonterminal(self):
        sdts = sdts_of(TINY_SPEC)
        first = first_sets(sdts)
        assert first["r"] == {"word", "iadd"}

    def test_follow_includes_end_marker(self):
        sdts = sdts_of(TINY_SPEC)
        follow = follow_sets(sdts)
        assert END_MARKER in follow["lambda"]

    def test_follow_of_r(self):
        sdts = sdts_of(TINY_SPEC)
        follow = follow_sets(sdts)
        # iadd r r: first r followed by FIRST(r); second r by FOLLOW of
        # the whole production's contexts.
        assert {"word", "iadd"} <= follow["r"]


class TestTablesConstruction:
    def test_tiny_spec_has_no_conflicts(self):
        sdts = sdts_of(TINY_SPEC)
        tables, conflicts = build_parse_tables(sdts)
        assert conflicts == []

    def test_ambiguous_spec_resolves_toward_longer(self):
        sdts = sdts_of(AMBIG_SPEC)
        tables, conflicts = build_parse_tables(sdts)
        kinds = {c.kind for c in conflicts}
        assert conflicts, "redundant grammar must produce conflicts"
        assert kinds <= {"shift/reduce", "reduce/reduce"}
        for c in conflicts:
            if c.kind == "shift/reduce":
                assert c.chosen.startswith("shift")

    def test_accept_action_present(self):
        sdts = sdts_of(TINY_SPEC)
        tables, _ = build_parse_tables(sdts)
        accepts = sum(
            1 for row in tables.matrix for a in row if a == T.ACCEPT
        )
        assert accepts == 1

    def test_every_state_has_a_row(self):
        sdts = sdts_of(TINY_SPEC)
        automaton = build_automaton(sdts)
        tables, _ = build_parse_tables(sdts, automaton)
        assert tables.nstates == automaton.nstates

    def test_reduce_reduce_prefers_longer_production(self):
        sdts = sdts_of(AMBIG_SPEC)
        _, conflicts = build_parse_tables(sdts)
        rr = [c for c in conflicts if c.kind == "reduce/reduce"]
        for c in rr:
            chosen_pid = int(c.chosen.split()[1])
            rejected_pid = int(c.rejected.split()[1])
            chosen = sdts.productions[chosen_pid]
            rejected = sdts.productions[rejected_pid]
            assert len(chosen.rhs) >= len(rejected.rhs)
