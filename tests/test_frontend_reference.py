"""Equivalence: the Pascal lexer and the IF CSE against their references.

:func:`repro.pascal.lexer.tokenize` is one regex pass, and
:class:`repro.ir.optimizer.CseOptimizer` finds its groups in one
bottom-up walk with hash-consed integer keys and a kill index.  This
file keeps the character-loop lexer (``reference_tokenize``) and the
optimizer that rendered a string key per subtree, re-walked every new
group for its reads and tested every available group against every
store (``ReferenceCse``), and requires the same token streams and
errors, and the same optimized trees, CSE ids and frame temporaries, on
the example programs, every benchmark program, random source strings
and random programs.
"""

import ast
import importlib.util
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Set, Tuple

import pytest

from helpers import random_program, random_rich_program
from repro.bench.codequality import quality_workloads
from repro.errors import PascalSyntaxError, ReproError
from repro.ir.optimizer import (
    _BOUNDARY_OPS,
    _CALL_OPS,
    _MEMORY_OPS,
    PURE_OPS,
    optimize_routine,
)
from repro.ir.tree import IFTree, Leaf, Node
from repro.machines.s370 import runtime
from repro.pascal.irgen import generate_ir
from repro.pascal.lexer import KEYWORDS, Tok, Token, tokenize
from repro.pascal.parser import parse_source
from repro.pascal.sema import check_program

ROOT = Path(__file__).resolve().parents[1]


# ---- the reference lexer ----------------------------------------------------

_TWO_CHAR = {":=": Tok.ASSIGN, "<>": Tok.NE, "<=": Tok.LE, ">=": Tok.GE,
             "..": Tok.DOTDOT}
_ONE_CHAR = {
    "+": Tok.PLUS, "-": Tok.MINUS, "*": Tok.STAR, "=": Tok.EQ,
    "<": Tok.LT, ">": Tok.GT, "(": Tok.LPAREN, ")": Tok.RPAREN,
    "[": Tok.LBRACKET, "]": Tok.RBRACKET, ";": Tok.SEMI, ":": Tok.COLON,
    ",": Tok.COMMA, ".": Tok.DOT,
}


def reference_tokenize(source: str) -> List[Token]:
    """The character-loop lexer (which took any Unicode letter or digit;
    the corpus below is ASCII)."""
    tokens: List[Token] = []
    line = 1
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            continue
        if ch == "{":
            end = source.find("}", i)
            if end < 0:
                raise PascalSyntaxError("unterminated { comment", line)
            line += source.count("\n", i, end)
            i = end + 1
            continue
        if source.startswith("(*", i):
            end = source.find("*)", i)
            if end < 0:
                raise PascalSyntaxError("unterminated (* comment", line)
            line += source.count("\n", i, end)
            i = end + 2
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            word = source[start:i].lower()
            tokens.append(Token(KEYWORDS.get(word, Tok.IDENT), word, line))
            continue
        if ch.isdigit():
            start = i
            while i < n and source[i].isdigit():
                i += 1
            text = source[start:i]
            tokens.append(Token(Tok.NUMBER, text, line, value=int(text)))
            continue
        if ch == "'":
            i += 1
            chars: List[str] = []
            while True:
                if i >= n or source[i] == "\n":
                    raise PascalSyntaxError("unterminated string", line)
                if source[i] == "'":
                    if i + 1 < n and source[i + 1] == "'":
                        chars.append("'")
                        i += 2
                        continue
                    i += 1
                    break
                chars.append(source[i])
                i += 1
            text = "".join(chars)
            if len(text) == 1:
                tokens.append(Token(Tok.STRING, text, line, value=ord(text)))
            else:
                tokens.append(Token(Tok.STRING, text, line))
            continue
        two = source[i: i + 2]
        if two in _TWO_CHAR:
            tokens.append(Token(_TWO_CHAR[two], two, line))
            i += 2
            continue
        if ch in _ONE_CHAR:
            tokens.append(Token(_ONE_CHAR[ch], ch, line))
            i += 1
            continue
        raise PascalSyntaxError(f"unexpected character {ch!r}", line)
    tokens.append(Token(Tok.EOF, "", line))
    return tokens


# ---- the reference CSE ------------------------------------------------------

Path_ = Tuple[int, ...]


@dataclass(frozen=True)
class _Read:
    base: int
    dsp: int
    size: int


_UNKNOWN_READ = _Read(-1, 0, 0)


def _reads(tree: IFTree, out: Set[_Read]) -> None:
    if isinstance(tree, Leaf):
        return
    if tree.op in _MEMORY_OPS:
        size = _MEMORY_OPS[tree.op]
        base = tree.children[-1]
        dsp = tree.children[-2]
        indexed = len(tree.children) == 3
        if isinstance(base, Leaf) and isinstance(dsp, Leaf):
            if indexed:
                out.add(_Read(base.value, -1, 0))
            else:
                out.add(_Read(base.value, dsp.value, size))
        else:
            out.add(_UNKNOWN_READ)
    for child in tree.children:
        _reads(child, out)


@dataclass
class _Write:
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
    occurrences: List[Tuple[int, Path_]] = field(default_factory=list)
    reads: Set[_Read] = field(default_factory=set)


def _walk(tree, path, out, collect=True):
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


def _statement_candidates(stmt, out) -> bool:
    if isinstance(stmt, Node) and stmt.op == "assign":
        target, value = stmt.children
        calls = _walk(target, (0,), out, collect=False)[3]
        return _walk(value, (1,), out)[3] or calls
    return _walk(stmt, (), out)[3]


def _replace(tree, path, new):
    if not path:
        return new
    children = list(tree.children)
    children[path[0]] = _replace(children[path[0]], path[1:], new)
    return Node(tree.op, tuple(children))


class ReferenceCse:
    """The string-keyed, scan-every-group block CSE."""

    def __init__(self, frame, next_cse_id=1, base_reg=13):
        self.frame = frame
        self.next_cse_id = next_cse_id
        self.base_reg = base_reg
        self.cse_count = 0

    def run(self, statements):
        out: List[IFTree] = []
        block: List[IFTree] = []
        for stmt in statements:
            if isinstance(stmt, Node) and stmt.op in _BOUNDARY_OPS:
                out.extend(self._optimize_block(block))
                block = []
                out.append(stmt)
            else:
                block.append(stmt)
        out.extend(self._optimize_block(block))
        return out

    def _optimize_block(self, block):
        if len(block) < 1:
            return block
        chosen = self._choose(self._find_groups(block))
        if not chosen:
            return block
        return self._rewrite(block, chosen)

    def _find_groups(self, block):
        available: Dict[str, _Group] = {}
        finished: List[_Group] = []
        for stmt_idx, stmt in enumerate(block):
            candidates: list = []
            calls = _statement_candidates(stmt, candidates)
            for path, tree, key, size in candidates:
                group = available.get(key)
                if group is None:
                    group = _Group(key, tree, size)
                    _reads(tree, group.reads)
                    available[key] = group
                group.occurrences.append((stmt_idx, path))
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
    def _choose(groups):
        def overlaps(a, b):
            if a[0] != b[0]:
                return False
            shorter, longer = sorted((a[1], b[1]), key=len)
            return longer[: len(shorter)] == shorter

        chosen: List[_Group] = []
        taken: list = []
        for group in sorted(groups, key=lambda g: -g.size):
            if any(overlaps(o, t) for o in group.occurrences for t in taken):
                continue
            chosen.append(group)
            taken.extend(group.occurrences)
        return chosen

    def _rewrite(self, block, chosen):
        out = list(block)
        edits = []
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
                    Node("fullword",
                         (Leaf("dsp", home), Leaf("r", self.base_reg))),
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


# ---- the corpus -------------------------------------------------------------


def _benchmark_programs():
    """Every distinct program of ``benchmark/programs.py``, smoke sets
    included, loaded from its file (the benchmark is not a package)."""
    spec = importlib.util.spec_from_file_location(
        "_bench_programs", ROOT / "benchmark" / "programs.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look it up
    spec.loader.exec_module(module)
    seen: Dict[str, str] = {}
    for name in module.WORKLOADS:
        for smoke in (False, True):
            for program in module.workload(name, module.DEFAULT_SEED, smoke):
                seen.setdefault(program.source, program.name)
    return [(name, source) for source, name in seen.items()]


def _example_programs():
    """The ``.pas`` files under ``examples/`` and every string constant
    in an example script that holds a Pascal program."""
    found = []
    for path in sorted((ROOT / "examples").rglob("*.pas")):
        found.append((path.name, path.read_text()))
    for path in sorted((ROOT / "examples").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and node.value.lstrip().lower().startswith("program "):
                found.append((f"{path.name}:{node.lineno}", node.value))
    return found


#: Fragments random sources are built from: every ASCII character the
#: lexer treats specially, keywords, and the openings of comments and
#: strings, which leave them unterminated unless a later fragment
#: closes them.
_FRAGMENTS = (
    list("abcxyzXYZ_0123456789 \t\r\n+-*=<>()[];:,.{}'#$@!?\"\\%&|^~`/")
    + ["(*", "*)", "..", "''", ":=", "<>", "<=", ">=", "{ c }", "(* c *)",
       "'s'", "begin", "END", "Div", "mod", "x1", "42", "007", "\n\n"]
)


def _random_sources(count=2000, seed=20):
    rng = random.Random(seed)
    return [
        "".join(rng.choice(_FRAGMENTS) for _ in range(rng.randint(0, 40)))
        for _ in range(count)
    ]


def _lex(lexer, source):
    try:
        return [(t.kind, t.text, t.line, t.value) for t in lexer(source)]
    except ReproError as exc:
        return (type(exc), str(exc), exc.line)


def _sources():
    return _example_programs() + _benchmark_programs() + list(
        quality_workloads()
    )


# ---- the lexer ---------------------------------------------------------------


def test_lexer_corpus_matches_the_reference():
    sources = _sources()
    assert len(sources) > 40
    for label, source in sources:
        assert _lex(tokenize, source) == _lex(reference_tokenize, source), \
            label


def test_lexer_random_strings_match_the_reference():
    outcomes = {"tokens": 0, "error": 0}
    messages: Set[str] = set()
    for source in _random_sources():
        got = _lex(tokenize, source)
        assert got == _lex(reference_tokenize, source), repr(source)
        if isinstance(got, tuple):
            outcomes["error"] += 1
            messages.add(got[1].split(": ", 1)[1].split(" '")[0])
        else:
            outcomes["tokens"] += 1
    # Both outcomes, and every kind of error, are exercised.
    assert min(outcomes.values()) > 100
    assert messages == {
        "unterminated { comment", "unterminated (* comment",
        "unterminated string", "unexpected character",
    }


# ---- the CSE -----------------------------------------------------------------


class _Recording:
    """A frame that records the temporaries the optimizer allocates."""

    def __init__(self, frame):
        self.frame = frame
        self.offsets: List[int] = []

    def alloc_temp(self, size):
        offset = self.frame.alloc_temp(size)
        self.offsets.append(offset)
        return offset


def _optimize(source, checks, optimizer):
    """Each routine's optimized statements, CSE count, next id and
    temporaries, from a fresh IF generation of ``source``."""
    ir = generate_ir(check_program(parse_source(source)), checks=checks)
    results = []
    next_id = 1
    for routine in ir.routines:
        frame = _Recording(routine.frame)
        statements, next_id, added = optimizer(
            routine.statements, frame, next_id
        )
        results.append((statements, added, next_id, frame.offsets))
    return results


def _new(statements, frame, next_id):
    return optimize_routine(statements, frame, next_cse_id=next_id,
                            base_reg=runtime.R_STACK_BASE)


def _reference(statements, frame, next_id):
    cse = ReferenceCse(frame, next_id, runtime.R_STACK_BASE)
    return cse.run(statements), cse.next_cse_id, cse.cse_count


@pytest.fixture(scope="module")
def cse_runs():
    """``(label, new, reference)`` per program of the corpus and per
    ``random_rich_program`` seed 0..39, with and without range checks."""
    programs = _sources() + [
        (f"random_rich_program({seed})", random_rich_program(seed))
        for seed in range(40)
    ] + [
        (f"random_program({seed})", random_program(seed))
        for seed in range(10)
    ]
    runs = []
    for label, source in programs:
        try:
            check_program(parse_source(source))
        except ReproError:
            continue
        for checks in (False, True):
            runs.append((
                f"{label} checks={checks}",
                _optimize(source, checks, _new),
                _optimize(source, checks, _reference),
            ))
    return runs


def test_cse_matches_the_reference(cse_runs):
    assert len(cse_runs) > 150
    for label, got, want in cse_runs:
        assert len(got) == len(want), label
        for routine, (g, w) in enumerate(zip(got, want)):
            # (statements, CSEs added, next CSE id, temporaries)
            assert g == w, f"{label} routine {routine}"


def test_cse_corpus_exercises_kills_and_reuse(cse_runs):
    """The corpus introduces CSEs, and kills groups that would
    otherwise have become CSEs: the reference without its store kills
    gives different trees."""
    total = sum(added for _, got, _ in cse_runs for _, added, _, _ in got)
    assert total > 200
    saved = _Write.kills
    _Write.kills = lambda self, read: False
    try:
        unkilled = [
            label for label, source in _sources()
            if _parses(source)
            and _optimize(source, False, _reference)
            != _optimize(source, False, _new)
        ]
    finally:
        _Write.kills = saved
    assert unkilled


def _parses(source):
    try:
        check_program(parse_source(source))
    except ReproError:
        return False
    return True
