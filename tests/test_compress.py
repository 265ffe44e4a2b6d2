"""Unit + property tests: parse-table compression.

The load-bearing invariant (paper Table 2's "Compressed Parse Table" is
only meaningful if it drives the same parser): for every (state, symbol)
either the compressed lookup equals the dense lookup, or the dense entry
is an ERROR and the compressed one is a *reduce* default (the standard
delayed-error-detection tradeoff, which can never emit a wrong
instruction because reductions consume no input).
"""

from collections import Counter
from typing import Dict, List, Set, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import tables as T
from repro.core.lr.compress import CompressedTables, compress_tables
from repro.core.tables import ParseTables

from helpers import tiny_build


def _check_equivalence(dense, compressed):
    for state in range(dense.nstates):
        for symbol in dense.symbols:
            d = dense.lookup(state, symbol)
            c = compressed.lookup(state, symbol)
            if d == c:
                continue
            assert d == T.ERROR and T.is_reduce(c), (
                f"state {state} symbol {symbol}: dense="
                f"{T.action_str(d)} compressed={T.action_str(c)}"
            )


class TestCompression:
    def test_tiny_tables_equivalent(self):
        build = tiny_build()
        _check_equivalence(build.tables, build.compressed)

    def test_s370_tables_equivalent(self):
        from repro.pascal.compiler import cached_build

        build = cached_build("full")
        _check_equivalence(build.tables, build.compressed)

    def test_compression_shrinks_realistic_tables(self):
        from repro.pascal.compiler import cached_build

        build = cached_build("full")
        assert build.compressed.size_bytes() < build.tables.size_bytes()

    def test_statistics(self):
        build = tiny_build()
        stats = build.compressed.statistics()
        assert stats["states"] == build.tables.nstates
        assert 0 < stats["fill_ratio"] <= 1.0

    def test_unknown_symbol_gets_default(self):
        build = tiny_build()
        compressed = build.compressed
        assert compressed.lookup(0, "nonsense") == compressed.default[0]


@st.composite
def random_tables(draw):
    nstates = draw(st.integers(min_value=1, max_value=12))
    nsymbols = draw(st.integers(min_value=1, max_value=10))
    symbols = [f"s{i}" for i in range(nsymbols)]
    actions = st.one_of(
        st.just(T.ERROR),
        st.integers(min_value=0, max_value=nstates - 1).map(T.encode_shift),
        st.integers(min_value=0, max_value=8).map(T.encode_reduce),
    )
    matrix = [
        [draw(actions) for _ in range(nsymbols)] for _ in range(nstates)
    ]
    return ParseTables(symbols=symbols, matrix=matrix)


class TestCompressionProperties:
    @given(random_tables())
    @settings(max_examples=60, deadline=None)
    def test_lookup_equivalence(self, dense):
        compressed = compress_tables(dense)
        _check_equivalence(dense, compressed)

    @given(random_tables())
    @settings(max_examples=30, deadline=None)
    def test_defaults_are_never_shifts(self, dense):
        compressed = compress_tables(dense)
        for action in compressed.default:
            assert not T.is_shift(action)
            assert action != T.ACCEPT


# ---- the first-fit oracle ---------------------------------------------------------


def reference_compress(tables: ParseTables) -> CompressedTables:
    """The original first-fit packer: for each row group, try every
    displacement from 0 and take the first that fits.  ``compress_tables``
    must find exactly the same displacements with its bitmasks."""
    nsym = tables.nsymbols

    def row_default(row: List[int]) -> int:
        reduces = Counter(a for a in row if T.is_reduce(a))
        if not reduces:
            return T.ERROR
        return reduces.most_common(1)[0][0]

    defaults = [row_default(row) for row in tables.matrix]
    groups: Dict[Tuple[Tuple[int, int], ...], List[int]] = {}
    for state, row in enumerate(tables.matrix):
        entries = tuple(
            (col, action)
            for col, action in enumerate(row)
            if action != defaults[state] and action != T.ERROR
        )
        groups.setdefault(entries, []).append(state)

    next_arr: List[int] = []
    check_arr: List[int] = []
    base = [0] * tables.nstates
    banned: Dict[int, Set[int]] = {}

    def fits(disp, entries) -> bool:
        for col, action in entries:
            slot = disp + col
            if slot < len(check_arr) and check_arr[slot] != -1:
                if check_arr[slot] != col or next_arr[slot] != action:
                    return False
            if col in banned.get(slot, ()):
                return False
        present = {col for col, _ in entries}
        for col in range(nsym):
            slot = disp + col
            if (col not in present and slot < len(check_arr)
                    and check_arr[slot] == col):
                return False
        return True

    for entries, states in sorted(groups.items(), key=lambda kv: -len(kv[0])):
        present = {col for col, _ in entries}
        if not entries:
            disp = len(next_arr)
        else:
            disp = 0
            while not fits(disp, entries):
                disp += 1
            while len(next_arr) < disp + entries[-1][0] + 1:
                next_arr.append(T.ERROR)
                check_arr.append(-1)
            for col, action in entries:
                next_arr[disp + col] = action
                check_arr[disp + col] = col
        for col in range(nsym):
            if col not in present:
                banned.setdefault(disp + col, set()).add(col)
        for state in states:
            base[state] = disp
    return CompressedTables(
        symbols=list(tables.symbols), default=defaults, base=base,
        next=next_arr, check=check_arr,
    )


@pytest.mark.parametrize("variant", ["minimal", "medium", "full", "toy"])
def test_shipped_specs_pack_like_first_fit(variant):
    from repro.core.cogg import build_code_generator

    if variant == "toy":
        from repro.machines.toy.spec import machine_description, spec_text

        build = build_code_generator(spec_text(), machine_description())
    else:
        from repro.pascal.compiler import cached_build

        build = cached_build(variant)
    expected = reference_compress(build.tables).to_bytes()
    assert compress_tables(build.tables).to_bytes() == expected
    assert build.compressed.to_bytes() == expected


@st.composite
def sparse_tables(draw):
    """Sparse action matrices drawn from a few row shapes, so rows
    repeat, some rows are pure defaults (all ERROR or one reduce), and
    a small action alphabet makes distinct rows share cells."""
    nstates = draw(st.integers(min_value=1, max_value=24))
    nsymbols = draw(st.integers(min_value=1, max_value=16))
    symbols = [f"s{i}" for i in range(nsymbols)]
    actions = st.one_of(
        st.integers(min_value=0, max_value=2).map(T.encode_shift),
        st.integers(min_value=0, max_value=2).map(T.encode_reduce),
    )

    def sparse_row():
        return st.lists(
            st.one_of(st.just(T.ERROR), st.just(T.ERROR), actions),
            min_size=nsymbols, max_size=nsymbols,
        )

    shapes = draw(st.lists(
        st.one_of(
            sparse_row(),
            st.just([T.ERROR] * nsymbols),
            st.integers(min_value=0, max_value=2).map(
                lambda p: [T.encode_reduce(p)] * nsymbols
            ),
        ),
        min_size=1, max_size=6,
    ))
    picks = draw(st.lists(
        st.integers(min_value=0, max_value=len(shapes) - 1),
        min_size=nstates, max_size=nstates,
    ))
    return ParseTables(
        symbols=symbols, matrix=[list(shapes[i]) for i in picks]
    )


@given(sparse_tables())
@settings(max_examples=200, deadline=None)
def test_bitset_packing_matches_first_fit(dense):
    compressed = compress_tables(dense)
    assert compressed.to_bytes() == reference_compress(dense).to_bytes()
    _check_equivalence(dense, compressed)
