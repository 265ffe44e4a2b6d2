"""Property tests over *random machine grammars*.

Everything else tests the shipped specs; this generates little machine
grammars (unary/binary operators, optional redundant fused productions
to force conflicts) plus random IF trees in their language, and asserts
the Glanville machinery end to end:

* table construction never fails, whatever conflicts arise;
* a generated parser accepts every string its grammar derives (no
  blocking), emitting one instruction per operator for the unfused
  grammar;
* redundant fused productions never *increase* the instruction count;
* compressed and dense tables drive identical emission.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.cogg import build_code_generator
from repro.core.machine import simple_machine
from repro.core.codegen.parser_rt import CodeGenerator
from repro.ir.linear import IFToken

_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def build_spec(n_unary: int, n_binary: int, fused: bool) -> str:
    unaries = [f"u{i}" for i in range(n_unary)]
    binaries = [f"b{i}" for i in range(n_binary)]
    lines = [
        "$Non-terminals",
        " r = register",
        "$Terminals",
        " d = displacement",
        "$Operators",
        " word, emit, " + ", ".join(unaries + binaries),
        "$Opcodes",
        " ld, out, "
        + ", ".join(f"do{o}" for o in unaries + binaries)
        + (", " + ", ".join(f"dm{o}" for o in binaries) if fused else ""),
        "$Constants",
        " using, modifies",
        " zero = 0",
        "$Productions",
        "r.2 ::= word d.1",
        " using r.2",
        " ld r.2,d.1(zero,zero)",
        "lambda ::= emit r.1",
        " out r.1,zero(zero,zero)",
    ]
    for op in unaries:
        lines += [
            f"r.1 ::= {op} r.1",
            " modifies r.1",
            f" do{op} r.1,r.1",
        ]
    for op in binaries:
        lines += [
            f"r.1 ::= {op} r.1 r.2",
            " modifies r.1",
            f" do{op} r.1,r.2",
        ]
        if fused:
            lines += [
                f"r.1 ::= {op} r.1 word d.1",
                " modifies r.1",
                f" dm{op} r.1,d.1(zero,zero)",
            ]
    return "\n".join(lines) + "\n"


@st.composite
def grammar_and_programs(draw):
    n_unary = draw(st.integers(0, 3))
    n_binary = draw(st.integers(1, 4))
    fused = draw(st.booleans())

    unaries = [f"u{i}" for i in range(n_unary)]
    binaries = [f"b{i}" for i in range(n_binary)]

    def tree(depth=0):
        if depth >= 4 or draw(st.booleans()):
            return ("word", draw(st.integers(0, 99)) * 4)
        if unaries and draw(st.integers(0, 2)) == 0:
            return (draw(st.sampled_from(unaries)), tree(depth + 1))
        op = draw(st.sampled_from(binaries))
        return (op, tree(depth + 1), tree(depth + 1))

    statements = [
        tree() for _ in range(draw(st.integers(1, 3)))
    ]
    return n_unary, n_binary, fused, statements


def linearize(statements):
    tokens = []

    def emit(node):
        if node[0] == "word":
            tokens.append(IFToken("word"))
            tokens.append(IFToken("d", node[1]))
            return
        tokens.append(IFToken(node[0]))
        for child in node[1:]:
            emit(child)

    for stmt in statements:
        tokens.append(IFToken("emit"))
        emit(stmt)
    return tokens


def count_ops(statements):
    total = 0

    def walk(node):
        nonlocal total
        total += 1
        if node[0] != "word":
            for child in node[1:]:
                walk(child)

    for stmt in statements:
        walk(stmt)
    return total


class TestRandomGrammars:
    @given(grammar_and_programs())
    @settings(max_examples=40, **_SETTINGS)
    def test_parser_never_blocks(self, case):
        n_unary, n_binary, fused, statements = case
        spec = build_spec(n_unary, n_binary, fused)
        build = build_code_generator(
            spec, simple_machine("rand", registers=range(1, 10))
        )
        tokens = linearize(statements)
        code = build.code_generator.generate(tokens)
        assert code.reductions > 0
        # outs == statement count, always
        outs = sum(1 for i in code.instructions() if i.opcode == "out")
        assert outs == len(statements)
        # Reducers compiled on first use emit what the generic one does.
        listings = []
        for threshold in (None, 1):
            gen = CodeGenerator(build.sdts, build.tables, build.machine)
            gen.compile_threshold = threshold
            listings.append(gen.generate(tokens).listing())
        assert listings[0] == listings[1]

    @given(grammar_and_programs())
    @settings(max_examples=25, **_SETTINGS)
    def test_unfused_instruction_count_exact(self, case):
        """Without fusion, emission is 1:1 with tree nodes + emits."""
        n_unary, n_binary, _fused, statements = case
        spec = build_spec(n_unary, n_binary, fused=False)
        build = build_code_generator(
            spec, simple_machine("rand", registers=range(1, 10))
        )
        code = build.code_generator.generate(linearize(statements))
        expected = count_ops(statements) + len(statements)
        assert len(code.instructions()) == expected

    @given(grammar_and_programs())
    @settings(max_examples=25, **_SETTINGS)
    def test_fusion_never_hurts(self, case):
        n_unary, n_binary, _fused, statements = case
        tokens = linearize(statements)
        counts = {}
        for fused in (False, True):
            spec = build_spec(n_unary, n_binary, fused)
            build = build_code_generator(
                spec, simple_machine("rand", registers=range(1, 10))
            )
            code = build.code_generator.generate(tokens)
            counts[fused] = len(code.instructions())
        assert counts[True] <= counts[False]

    @given(grammar_and_programs())
    @settings(max_examples=20, **_SETTINGS)
    def test_compressed_tables_drive_identically(self, case):
        n_unary, n_binary, fused, statements = case
        spec = build_spec(n_unary, n_binary, fused)
        machine = simple_machine("rand", registers=range(1, 10))
        build = build_code_generator(spec, machine)
        tokens = linearize(statements)
        dense = build.code_generator.generate(tokens)
        compressed_gen = CodeGenerator(
            build.sdts, build.compressed, machine
        )
        compressed = compressed_gen.generate(tokens)
        assert [str(i) for i in dense.instructions()] == [
            str(i) for i in compressed.instructions()
        ]
