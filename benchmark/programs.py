"""Frozen benchmark inputs: program generators and the four workloads.

Program text is fixed here, independent of ``repro.bench.workloads``, so
edits there cannot shift what the benchmark measures.  The seed draws
only the data each program reads with ``read`` and the order in which
serve requests arrive.  No program branches on the data it reads, so code
size and executed-instruction counts are the same for every seed, while
outputs differ from seed to seed and keep the oracle check meaningful.
Every program stays inside the 4096-byte global area (an array kernel of
400 elements would raise ``ShapeError``).
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

WORKLOADS = ("hot_loop", "big_straightline", "opt_stress", "serve_mixed")

DEFAULT_SEED = 11


# ---- generators -------------------------------------------------------------

def arith_loop(iterations: int) -> str:
    """A tight arithmetic while-loop: simulator throughput."""
    return f"""program arith;
var i, a, b, c: integer;
begin
  read(a, c);
  b := 2;
  i := 0;
  while i < {iterations} do begin
    c := c + a * 3 - (b div 2);
    a := a + (c mod 7);
    b := b + 1;
    if b > 1000 then b := b - 999;
    i := i + 1
  end;
  writeln(c)
end.
"""


def chain_loop(iterations: int) -> str:
    """Each statement stores what the next reloads (peephole forwarding)."""
    return f"""program chainl;
var a, b, c, n: integer;
begin
  read(a, b, c);
  n := {iterations};
  while n > 0 do begin
    a := a + b;
    b := a + c;
    c := b + a;
    a := c + b;
    b := a + c;
    c := b + a;
    n := n - 1
  end;
  writeln(a); writeln(b); writeln(c)
end.
"""


def call_loop(iterations: int) -> str:
    """Three procedures called with live globals around every call."""
    return f"""program callheavy;
var g, h, s, t, i, u: integer;

procedure tally(x: integer);
begin
  s := s + x
end;

procedure scale(x: integer);
begin
  t := t + x * g
end;

procedure work(n: integer);
begin
  tally(n);
  scale(n + h)
end;

begin
  read(g, h);
  s := 0; t := 0;
  i := 1;
  while i <= {iterations} do
  begin
    u := i;
    work(i);
    u := g + h;
    tally(g + h);
    scale(h - g);
    tally(u + g * h);
    i := i + 1
  end;
  writeln(s, ' ', t)
end.
"""


def array_kernel(size: int) -> str:
    """Indexed loads and stores over three arrays."""
    last = size - 1
    return f"""program kernel;
var a, b, c: array[0..{last}] of integer;
    i, p, q, total: integer;
begin
  read(p, q);
  for i := 0 to {last} do begin
    a[i] := i * p + 1;
    b[i] := (i mod 17) * q - 7
  end;
  for i := 0 to {last} do
    c[i] := a[i] * b[i] + a[i] div (b[i] * b[i] + 1);
  total := 0;
  for i := 0 to {last} do total := total + c[i];
  writeln(total)
end.
"""


def nested_loop(n: int) -> str:
    """Two nested counted loops around a multiply-and-mod body."""
    return f"""program nested;
var i, j, s, x, y: integer;
begin
  read(x, y);
  s := 0;
  for i := 1 to {n} do
    for j := 1 to {n} do
      s := s + (i * x + j * y) mod 13;
  writeln(s)
end.
"""


def straightline(assignments: int, shape: int) -> str:
    """N dependent assignments over five variables; ``shape`` fixes which."""
    rng = random.Random(shape)
    names = ["a", "b", "c", "d", "e"]
    lines: List[str] = []
    for _ in range(assignments):
        target = rng.choice(names)
        x, y = rng.choice(names), rng.choice(names)
        op = rng.choice(["+", "-", "*"])
        if op == "*":
            lines.append(f"  {target} := ({x} mod 1000) * ({y} mod 100);")
        else:
            lines.append(f"  {target} := {x} {op} {y};")
    body = "\n".join(lines)
    return (
        "program straight;\n"
        "var a, b, c, d, e: integer;\n"
        "begin\n"
        "  read(a, b, c, d, e);\n"
        f"{body}\n"
        "  writeln(a + b + c + d + e)\n"
        "end.\n"
    )


def branch_ladder(rungs: int) -> str:
    """If/else rungs on a fixed ``x``; large ladders cross 4096-byte pages,
    which drives the long-branch path of paper section 4.2."""
    lines = [
        f"  if x > {i} then y := y + {i % 97}\n  else y := y - {i % 89};"
        for i in range(rungs)
    ]
    body = "\n".join(lines)
    return (
        "program ladder;\n"
        "var x, y: integer;\n"
        "begin\n"
        "  x := 50;\n"
        "  read(y);\n"
        f"{body}\n"
        "  writeln(y)\n"
        "end.\n"
    )


def expression_chain(depth: int) -> str:
    """One deeply nested expression."""
    expr = "a"
    for i in range(depth):
        expr = f"({expr} + b * {i + 1})"
    return (
        "program chain;\n"
        "var a, b, r: integer;\n"
        "begin\n"
        "  read(a, b);\n"
        f"  r := {expr};\n"
        "  writeln(r)\n"
        "end.\n"
    )


def register_pressure(depth: int) -> str:
    """A right-nested subtraction chain over distinct variables: past the
    register file every extra level spills a clean variable load."""
    names = [f"a{i}" for i in range(1, depth + 1)]
    expr = names[-1]
    for name in reversed(names[:-1]):
        expr = f"({name} - {expr})"
    return (
        "program pressure;\n"
        f"var {', '.join(names)}, r: integer;\n"
        "begin\n"
        f"  read({', '.join(names)});\n"
        f"  r := {expr};\n"
        "  writeln(r)\n"
        "end.\n"
    )


def literal_pressure(depth: int) -> str:
    """A right-nested subtraction chain over literals: spilled values have
    no memory home, so only -O4 rematerialization avoids the stores."""
    expr = "k"
    for value in range(depth - 1, 0, -1):
        expr = f"({value} - {expr})"
    return (
        "program litpress;\n"
        "var k, r: integer;\n"
        "begin\n"
        "  read(k);\n"
        f"  r := {expr};\n"
        "  writeln(r)\n"
        "end.\n"
    )


def cse_block(repeats: int) -> str:
    """Statements sharing one large common subexpression."""
    uses = "\n".join(
        f"  r{i} := (a * b + c) * {i + 1} + (a * b + c);"
        for i in range(repeats)
    )
    decls = ", ".join(f"r{i}" for i in range(repeats))
    total = " + ".join(f"r{i}" for i in range(repeats))
    return (
        "program csework;\n"
        f"var a, b, c, {decls}: integer;\n"
        "begin\n"
        "  read(a, b, c);\n"
        f"{uses}\n"
        f"  writeln({total})\n"
        "end.\n"
    )


def recursion(depth: int) -> str:
    """A self-recursive function: call-graph cycles for -O4 summaries."""
    return f"""program recur;
var k, r: integer;

function tri(n: integer): integer;
begin
  if n = 0 then tri := k
  else tri := n + tri(n - 1)
end;

begin
  read(k);
  r := tri({depth});
  writeln(r)
end.
"""


# ---- workloads --------------------------------------------------------------

@dataclass(frozen=True)
class Program:
    """One benchmark input: Pascal source compiled at ``level``.

    ``kind`` is ``"run"`` (compile, load and simulate) or ``"compile"``
    (object code only); ``inputs`` are the values the program reads.
    """

    name: str
    source: str
    level: int
    kind: str
    inputs: Tuple[int, ...] = ()


_READ = re.compile(r"\bread\(([^)]*)\)")


def _inputs(seed: int, name: str, source: str) -> Tuple[int, ...]:
    count = sum(len(m.split(",")) for m in _READ.findall(source))
    rng = random.Random(f"{seed}:{name}")
    return tuple(rng.randint(1, 99) for _ in range(count))


# (name, source, level, kind) per workload; the smoke sets are the reduced
# program sets of the self-test.
_SETS: Dict[str, List[Tuple[str, str, int, str]]] = {
    # Simulator-bound: each image is small and executes a long loop.
    "hot_loop": [
        ("arith_loop_3000", arith_loop(3000), 1, "run"),
        ("chain_loop_2000", chain_loop(2000), 1, "run"),
        ("call_loop_300", call_loop(300), 1, "run"),
        ("array_kernel_300", array_kernel(300), 1, "run"),
        ("nested_loop_40", nested_loop(40), 1, "run"),
    ],
    # Compile-bound: every instruction runs about once.
    "big_straightline": [
        ("straightline_200", straightline(200, 4), 1, "run"),
        ("straightline_300", straightline(300, 1), 1, "run"),
        ("straightline_400", straightline(400, 2), 1, "run"),
        ("straightline_500", straightline(500, 3), 1, "run"),
        ("branch_ladder_300", branch_ladder(300), 1, "run"),
    ],
    # Optimizer-bound: shapes written for the -O2..-O4 passes.
    "opt_stress": [
        ("register_pressure_20", register_pressure(20), 4, "run"),
        ("literal_pressure_22", literal_pressure(22), 4, "run"),
        ("call_loop_30", call_loop(30), 4, "run"),
        ("chain_loop_400", chain_loop(400), 4, "run"),
        ("expression_chain_40", expression_chain(40), 4, "run"),
        ("cse_block_8", cse_block(8), 4, "run"),
        ("straightline_150", straightline(150, 1), 4, "run"),
        ("branch_ladder_80", branch_ladder(80), 4, "run"),
        ("recursion_40", recursion(40), 4, "run"),
    ],
    # The request pool: 12 small /run at -O1, 6 mid-size /compile at -O1,
    # 6 /compile at -O4.
    "serve_mixed": [
        ("arith_loop_200", arith_loop(200), 1, "run"),
        ("arith_loop_500", arith_loop(500), 1, "run"),
        ("chain_loop_100", chain_loop(100), 1, "run"),
        ("chain_loop_250", chain_loop(250), 1, "run"),
        ("call_loop_10", call_loop(10), 1, "run"),
        ("call_loop_25", call_loop(25), 1, "run"),
        ("array_kernel_40", array_kernel(40), 1, "run"),
        ("array_kernel_100", array_kernel(100), 1, "run"),
        ("nested_loop_12", nested_loop(12), 1, "run"),
        ("nested_loop_20", nested_loop(20), 1, "run"),
        ("cse_block_4", cse_block(4), 1, "run"),
        ("expression_chain_12", expression_chain(12), 1, "run"),
        ("straightline_80", straightline(80, 5), 1, "compile"),
        ("straightline_120", straightline(120, 6), 1, "compile"),
        ("straightline_160", straightline(160, 7), 1, "compile"),
        ("branch_ladder_40", branch_ladder(40), 1, "compile"),
        ("branch_ladder_60", branch_ladder(60), 1, "compile"),
        ("branch_ladder_90", branch_ladder(90), 1, "compile"),
        ("register_pressure_20", register_pressure(20), 4, "compile"),
        ("literal_pressure_22", literal_pressure(22), 4, "compile"),
        ("call_loop_30", call_loop(30), 4, "compile"),
        ("expression_chain_30", expression_chain(30), 4, "compile"),
        ("cse_block_8", cse_block(8), 4, "compile"),
        ("straightline_60", straightline(60, 8), 4, "compile"),
    ],
}

_SMOKE: Dict[str, List[Tuple[str, str, int, str]]] = {
    "hot_loop": [
        ("arith_loop_300", arith_loop(300), 1, "run"),
        ("call_loop_20", call_loop(20), 1, "run"),
        ("nested_loop_10", nested_loop(10), 1, "run"),
    ],
    "big_straightline": [
        ("straightline_60", straightline(60, 4), 1, "run"),
        ("branch_ladder_30", branch_ladder(30), 1, "run"),
        ("straightline_40", straightline(40, 1), 1, "run"),
    ],
    "opt_stress": [
        ("register_pressure_20", register_pressure(20), 4, "run"),
        ("call_loop_10", call_loop(10), 4, "run"),
        ("recursion_10", recursion(10), 4, "run"),
    ],
    "serve_mixed": [
        ("arith_loop_200", arith_loop(200), 1, "run"),
        ("cse_block_4", cse_block(4), 1, "run"),
        ("straightline_80", straightline(80, 5), 1, "compile"),
        ("literal_pressure_22", literal_pressure(22), 4, "compile"),
    ],
}


def workload(name: str, seed: int, smoke: bool = False) -> List[Program]:
    """The programs of one workload, with inputs drawn from ``seed``."""
    table = _SMOKE if smoke else _SETS
    if name not in table:
        raise ValueError(f"unknown workload {name!r}; one of {WORKLOADS}")
    return [
        Program(pname, source, level, kind, _inputs(seed, pname, source))
        for pname, source, level, kind in table[name]
    ]


def request_stream(programs: List[Program], seed: int) -> Iterator[Program]:
    """Serve requests: 50% small /run, 30% mid-size /compile at -O1 and
    20% /compile at -O4, dealt in shuffled rounds of 120.

    Dealing whole rounds keeps the request mix of every run the same up
    to its last partial round; only the order depends on the seed.
    """
    def share(program: Program) -> int:
        if program.kind == "run":
            return 60
        return 36 if program.level == 1 else 24

    groups: Dict[Tuple[str, int], List[Program]] = {}
    for program in programs:
        groups.setdefault((program.kind, program.level), []).append(program)
    deck: List[Program] = []
    for members in groups.values():
        copies = share(members[0]) // len(members)
        deck.extend(p for p in members for _ in range(max(1, copies)))
    rng = random.Random(seed)
    while True:
        yield from rng.sample(deck, len(deck))
