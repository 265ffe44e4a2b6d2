"""Property tests: random programs, compiled output == interpreter output.

The strongest evidence the reproduction gives for the paper's
correctness claim: arbitrary (bounded) programs in the subset produce
identical output through two completely independent execution paths --
the AST interpreter, and the full table-driven compile + S/370 simulate
pipeline.
"""

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.pascal import compile_source, interpret_source
from repro.pascal.compiler import cached_build

from helpers import random_program, random_rich_program

# Build the tables once up front so hypothesis deadlines don't trip.
cached_build("full")
cached_build("minimal")

_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestRandomPrograms:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, **_SETTINGS)
    def test_full_variant_matches_interpreter(self, seed):
        source = random_program(seed)
        expected = interpret_source(source)
        result = compile_source(source).run()
        assert result.trap is None
        assert result.output == expected

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, **_SETTINGS)
    def test_minimal_variant_matches_interpreter(self, seed):
        source = random_program(seed)
        expected = interpret_source(source)
        result = compile_source(source, variant="minimal").run()
        assert result.output == expected

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, **_SETTINGS)
    def test_optimizer_preserves_semantics(self, seed):
        source = random_program(seed)
        optimized = compile_source(source, optimize=True).run()
        plain = compile_source(source, optimize=False).run()
        assert optimized.output == plain.output


class TestRichPrograms:
    """Arrays, sets, case and routine calls in one generator."""

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, **_SETTINGS)
    def test_rich_program_matches_interpreter(self, seed):
        source = random_rich_program(seed)
        expected = interpret_source(source)
        result = compile_source(source).run()
        assert result.trap is None
        assert result.output == expected

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, **_SETTINGS)
    def test_rich_program_baseline(self, seed):
        from repro.baseline import compile_baseline
        from repro.errors import CodeGenError

        source = random_rich_program(seed)
        expected = interpret_source(source)
        try:
            result = compile_baseline(source).run()
        except CodeGenError as error:
            # The hand-written generator has no spill path: expressions
            # deeper than its register file are a documented limitation
            # (the table-driven generator spills -- see the sibling
            # test).  Skip such inputs rather than shrink onto them.
            assume("register" not in str(error)
                   and "pair" not in str(error))
            raise
        assert result.trap is None
        assert result.output == expected

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, **_SETTINGS)
    def test_rich_program_checked(self, seed):
        """Range checking must never fire on in-range programs and
        never change output."""
        source = random_rich_program(seed)
        expected = interpret_source(source)
        result = compile_source(source, checks=True).run()
        assert result.trap is None
        assert result.output == expected


class TestRandomExpressions:
    @given(
        values=st.lists(
            st.integers(min_value=-30_000, max_value=30_000),
            min_size=4, max_size=4,
        ),
        seed=st.integers(min_value=0, max_value=999),
    )
    @settings(max_examples=40, **_SETTINGS)
    def test_expression_evaluation(self, values, seed):
        from helpers import ProgramGen
        import random as _random

        gen = ProgramGen(_random.Random(seed))
        expr = gen.int_expr()
        a, b, c, d = values
        source = (
            "program e;\n"
            "var a, b, c, d: integer;\n"
            "    p, q: boolean;\n"
            "begin\n"
            f"  a := {a}; b := {b}; c := {c}; d := {d};\n"
            "  p := false; q := true;\n"
            f"  writeln({expr})\n"
            "end.\n"
        )
        assert compile_source(source).run().output == interpret_source(
            source
        )

    @given(
        x=st.integers(min_value=-100_000, max_value=100_000),
        y=st.integers(min_value=-1000, max_value=1000),
    )
    @settings(max_examples=60, **_SETTINGS)
    def test_division_pairs(self, x, y):
        """div/mod through the even/odd pair idiom, all sign mixes."""
        if y == 0:
            y = 7
        source = (
            "program d; var x, y: integer;\n"
            f"begin x := {x}; y := {y};\n"
            "  writeln(x div y, ' ', x mod y, ' ', x * y)\nend.\n"
        )
        assert compile_source(source).run().output == interpret_source(
            source
        )

    @given(
        values=st.lists(
            st.integers(min_value=0, max_value=9), min_size=5, max_size=5
        )
    )
    @settings(max_examples=30, **_SETTINGS)
    def test_array_permutations(self, values):
        stores = "".join(
            f"  a[{i}] := {v};\n" for i, v in enumerate(values)
        )
        source = (
            "program ap; var a: array[0..4] of integer; i: integer;\n"
            "begin\n"
            + stores
            + "  for i := 0 to 4 do write(a[i], ' ');\n  writeln\nend.\n"
        )
        assert compile_source(source).run().output == interpret_source(
            source
        )


#: Fixed seeds of each generator for the -O2..-O4 differential.
OPT_SEEDS = range(25)


@pytest.mark.parametrize("level", [2, 3, 4])
def test_global_optimizer_levels_match_interpreter(level):
    """Seeded: every -O2..-O4 compile of fixed random programs prints
    what the interpreter prints (the default level alone runs above)."""
    for seed in OPT_SEEDS:
        for source in (random_program(seed), random_rich_program(seed)):
            result = compile_source(source, opt_level=level).run()
            assert result.trap is None, (level, seed)
            assert result.output == interpret_source(source), (level, seed)
