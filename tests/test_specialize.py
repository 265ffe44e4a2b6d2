"""Compiled reducers: the second tier of the code generator's reductions.

Contract under test (see :mod:`repro.core.specialize` and
:class:`~repro.core.codegen.parser_rt.CodeGenerator`):

* a generator whose reducer slots compile emits **byte-identical**
  object code to the reference generator, whose slots never compile
  (``compile_threshold = None``), at every optimization level on
  S/370 and on T16;
* a production's first ``compile_threshold - 1`` reductions run the
  generic reducer, the later ones its compiled reducer;
* a spilled incoming operand sends a compiled reducer back to the
  generic one for that reduction;
* dropping every compiled reducer at random points mid-generate leaves
  the code unchanged;
* the watchdogs and the template resolver raise the same errors
  either way;
* threads installing and dropping reducers on one shared generator
  still emit single-threaded code;
* the emitted reducers leave register state to the allocator: their
  source names none of its pools or ``RegState`` fields.
"""

from __future__ import annotations

import copy
import py_compile
import random
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import pytest

import test_end_to_end as E2E
from repro.bench import workloads as W
from repro.core import specialize as SP
from repro.core import tables as T
from repro.core.cogg import build_code_generator
from repro.core.codegen.emitter import CodeBuffer
from repro.core.codegen.operand import SpilledValue
from repro.core.codegen.parser_rt import (
    COMPILE_THRESHOLD,
    CodeGenerator,
    ParserGuards,
)
from repro.core.machine import simple_machine
from repro.core.speclang.semops import BindMode, SemopInfo
from repro.core.tables import ParseTables
from repro.errors import CodeGenError, ReproError
from repro.ir.linear import IFToken
from repro.machines.toy import build_toy
from repro.machines.toy.machine import R_DATA
from repro.pascal.compiler import cached_build, compile_source

WORKLOADS = {
    "appendix1_equation": W.appendix1_equation(),
    "appendix1_fragment": W.appendix1_fragment(),
    "straightline": W.straightline(60, seed=3),
    "expression_chain": W.expression_chain(12),
    "branch_ladder": W.branch_ladder(12),
    "array_kernel": W.array_kernel(12),
    "loop_kernel": W.loop_kernel(50),
    "chain_loop": W.chain_loop(20),
    "cse_workload": W.cse_workload(3),
}

#: The byte-identity inputs: the workloads, and a program where a
#: MODIFIES destination is live elsewhere, so the handler rebinds it to
#: a fresh register that the next template must read.
IDENTITY_INPUTS = dict(
    WORKLOADS, modifies_relocation=E2E.TestModifiesSharedRegister.SRC,
)

LEVELS = (0, 1, 2, 3, 4)


def _generator(build, threshold):
    gen = CodeGenerator(build.sdts, build.tables, build.machine)
    gen.compile_threshold = threshold
    return gen


def _with_generator(build, gen):
    """A copy of ``build`` that compiles through ``gen``."""
    copied = copy.copy(build)
    copied.code_generator = gen
    return copied


@pytest.fixture(scope="module")
def build():
    return cached_build()


@pytest.fixture(scope="module")
def reference(build):
    return _with_generator(build, _generator(build, None))


@pytest.fixture(scope="module")
def tiered(build):
    """Every reducer compiled on its production's first reduction."""
    return _with_generator(build, _generator(build, 1))


def _compiled_slots(gen):
    return {
        pid for pid, slot in enumerate(gen._reducers)
        if slot is not None and slot.__name__ == "_reduce"
    }


# ---- byte-identical output ---------------------------------------------------------


@pytest.mark.parametrize("name", sorted(IDENTITY_INPUTS))
def test_specialized_lane_byte_identical(name, reference, tiered):
    source = IDENTITY_INPUTS[name]
    for level in LEVELS:
        expected = compile_source(source, build=reference, opt_level=level)
        got = compile_source(source, build=tiered, opt_level=level)
        assert got.object_records == expected.object_records, level
    assert _compiled_slots(tiered.code_generator)
    assert not _compiled_slots(reference.code_generator)


def test_specialized_lane_same_runtime_behavior(reference, tiered):
    expected = compile_source(WORKLOADS["loop_kernel"], build=reference).run()
    got = compile_source(WORKLOADS["loop_kernel"], build=tiered).run()
    assert got == expected


def test_spill_heavy_programs_byte_identical(reference, tiered):
    """Register pressure at every level: spills, reloads, -O3/-O4 spill
    plans and rematerialization all run through compiled reducers."""
    for source in (W.register_pressure(20), W.literal_pressure(22)):
        for level in LEVELS:
            expected = compile_source(
                source, build=reference, opt_level=level
            ).object_records
            got = compile_source(source, build=tiered, opt_level=level)
            assert got.object_records == expected, level


def _toy_program():
    tokens = []
    for i in range(12):
        tokens += [
            IFToken("assign"), IFToken("fullword"), IFToken("dsp", 4 * (i % 4)),
            IFToken("r", R_DATA),
            IFToken("iadd"),
            IFToken("pos_constant"), IFToken("val", i),
            IFToken("pos_constant"), IFToken("val", 2 * i),
            IFToken("write_int"), IFToken("imax"),
            IFToken("pos_constant"), IFToken("val", i),
            IFToken("pos_constant"), IFToken("val", 7),
            IFToken("write_nl"),
        ]
    return tokens + [IFToken("program_end")]


@pytest.mark.parametrize("strategy", [None, "fixed"])
def test_toy_target_byte_identical(strategy):
    """``None`` keeps the generator's default allocation strategy."""
    toy = build_toy()
    listings = []
    for threshold in (None, 1, COMPILE_THRESHOLD):
        gen = _generator(toy, threshold)
        if strategy is not None:
            gen.allocation_strategy = strategy
        listings.append(gen.generate(_toy_program()).listing())
    assert listings[1] == listings[0]
    assert listings[2] == listings[0]


# ---- the tiers -------------------------------------------------------------------


def test_first_reductions_generic_later_compiled(build):
    gen = _generator(build, 3)
    calls = []
    generic = gen._reduce

    def spy(run, front, plan):
        calls.append(plan)
        return generic(run, front, plan)

    gen._reduce = spy
    gen.drop_compiled_reducers()  # slots pick up the spy
    tokens = compile_source(WORKLOADS["straightline"], build=build).tokens
    gen.generate(list(tokens))
    counts = {}
    for plan in calls:
        counts[id(plan)] = counts.get(id(plan), 0) + 1
    # Two generic reductions per production, then its compiled reducer.
    assert counts and max(counts.values()) == 2
    compiled = _compiled_slots(gen)
    assert compiled == {
        pid for pid, plan in enumerate(gen._plans) if counts.get(id(plan)) == 2
        and gen._kinds[pid] == 2
    }
    # Dropping puts every slot back on the generic reducer.
    gen.drop_compiled_reducers()
    assert not _compiled_slots(gen)


def _index_spill(depth: int = 20) -> str:
    """``v[a1] := (a1 - (a2 - ...))``: the index register waits across
    a subtraction chain deep enough to spill it, so the assignment's
    (handler-free, hence context-free) reducer gets a spilled operand."""
    names = [f"a{i}" for i in range(1, depth + 1)]
    expr = names[-1]
    for name in reversed(names[:-1]):
        expr = f"({name} - {expr})"
    inits = "".join(f"  a{i} := {i % 7 + 1};\n" for i in range(1, depth + 1))
    return (
        f"program p;\nvar {', '.join(names)}: integer;\n"
        f"  v: array[0..40] of integer;\n"
        f"begin\n{inits}  v[a1] := {expr};\n  writeln(v[a1])\nend.\n"
    )


_INDEX_SPILL = _index_spill()


def test_spilled_operand_falls_back_to_generic(build):
    gen = _generator(build, 1)
    fallbacks = []
    generic = gen._reduce

    def spy(run, front, plan):
        pid = gen._plans.index(plan)
        values = [v for _, _, v in run.stack[-plan.nrhs:]]
        if pid in _compiled_slots(gen) and any(
            type(v) is SpilledValue for v in values
        ):
            fallbacks.append(pid)
        return generic(run, front, plan)

    gen._reduce = spy
    gen.drop_compiled_reducers()
    source = _INDEX_SPILL
    got = compile_source(
        source, build=_with_generator(build, gen), opt_level=0
    )
    expected = compile_source(
        source, build=_with_generator(build, _generator(build, None)),
        opt_level=0,
    )
    assert fallbacks, "no compiled reducer met a spilled operand"
    assert got.object_records == expected.object_records


# ---- watchdogs -------------------------------------------------------------------


def _chain_loop_tables(build):
    """``lambda ::= write_nl`` reduced forever (see test_robustness)."""
    pid = next(
        i for i, p in enumerate(build.sdts.productions)
        if p.lhs == "lambda" and p.rhs == ("write_nl",)
    )
    tables = ParseTables(
        symbols=list(build.tables.symbols),
        matrix=[list(row) for row in build.tables.matrix],
    )
    lam_col = tables.sym_index["lambda"]
    for row in list(tables.matrix):
        if T.is_shift(row[lam_col]):
            target = T.shift_state(row[lam_col])
            tables.matrix[target] = [T.encode_reduce(pid)] * tables.nsymbols
    return tables


def _failure(gen, tokens, guards):
    with pytest.raises(ReproError) as info:
        gen.generate(list(tokens), guards=guards)
    error = info.value
    return type(error), str(error), getattr(error, "steps", None)


def test_watchdog_errors_unchanged(build):
    tokens = compile_source(WORKLOADS["loop_kernel"], build=build).tokens
    bogus = [IFToken("store"), IFToken("store"), IFToken("store")]
    looping = _chain_loop_tables(build)
    cases = [
        (build.tables, tokens, ParserGuards(step_budget=7)),
        (build.tables, tokens, ParserGuards(step_budget=len(tokens))),
        (build.tables, bogus, None),
        (looping, tokens, ParserGuards(chain_limit=500)),
    ]
    for tables, toks, guards in cases:
        failures = []
        for threshold in (None, 1):
            gen = CodeGenerator(build.sdts, tables, build.machine)
            gen.compile_threshold = threshold
            failures.append(_failure(gen, toks, guards))
        assert failures[0] == failures[1]


#: One template fault per statement: a constant with no value (as an
#: address part and as an immediate), a register operand bound to an
#: attribute, and a semantic operator no handler table registers.
_FAULTY_SPEC = """\
$Non-terminals
 r = register

$Terminals
 dsp = displacement
 val = constant_value

$Operators
 load, nokonst, nokimm, pushattr, frobop

$Opcodes
 ld, st

$Constants
 using, push_odd, frob
 myconst
 zero = 0

$Productions
r.1 ::= load dsp.1
 using r.1
 ld r.1,dsp.1(zero,zero)
lambda ::= nokonst r.1
 st r.1,myconst(zero,zero)
lambda ::= nokimm r.1
 st r.1,myconst
lambda ::= pushattr val.1
 push_odd val.1
lambda ::= frobop r.1
 frob r.1
"""


@pytest.mark.parametrize("tokens, message", [
    (
        [IFToken("nokonst"), IFToken("load"), IFToken("dsp", 4)],
        "st: constant 'myconst' has no value in the spec or machine "
        "description",
    ),
    (
        [IFToken("nokimm"), IFToken("load"), IFToken("dsp", 4)],
        "st: constant 'myconst' has no value in the spec or machine "
        "description",
    ),
    (
        [IFToken("pushattr"), IFToken("val", 3)],
        "push_odd: val.1 is bound to val=3, not a register",
    ),
    (
        [IFToken("frobop"), IFToken("load"), IFToken("dsp", 4)],
        "no handler for semantic operator 'frob'",
    ),
], ids=[
    "no-constant-value", "no-constant-immediate", "attribute-as-register",
    "no-handler",
])
def test_resolver_errors_unchanged(tokens, message):
    """A template the resolver cannot fill in raises the same error
    from the generic reducer and from a compiled one."""
    frob = SemopInfo(
        name="frob", bind_mode=BindMode.USES, min_operands=1, max_operands=1,
    )
    faulty = build_code_generator(
        _FAULTY_SPEC, simple_machine("testmachine"), extra_semops=[frob]
    )
    failures = []
    for threshold in (None, 1):
        gen = _generator(faulty, threshold)
        failures.append(_failure(gen, tokens, None))
        assert bool(_compiled_slots(gen)) == (threshold == 1)
    assert failures[0] == failures[1]
    kind, text, _ = failures[0]
    assert kind is CodeGenError
    assert text.startswith(message + " [LR state")


# ---- dropped mid-generate ----------------------------------------------------------


class _DroppingItems(list):
    """A code buffer's item list that drops every compiled reducer of
    ``gen`` as soon as it holds ``at[0]`` items (then ``at[1]``, ...)."""

    def __init__(self, gen, at):
        super().__init__()
        self.gen = gen
        self.at = at

    def append(self, item) -> None:
        super().append(item)
        if self.at and len(self) >= self.at[0]:
            del self.at[0]
            self.gen.drop_compiled_reducers()


@pytest.mark.parametrize("seed", range(12))
def test_reducers_dropped_mid_generate_change_nothing(build, seed):
    """Reducers compiled after one to four reductions, optionally all
    compiled up front by a warm-up generate, then dropped at random
    buffer lengths: slots fall back to the generic reducer and compile
    again, and the code equals a generate that never compiles one."""
    rng = random.Random(seed)
    source = WORKLOADS[rng.choice(sorted(WORKLOADS))]
    threshold = rng.randint(1, 4)
    warm = rng.random() < 0.5
    drops = rng.randint(1, 6)
    compiled = compile_source(source, build=build, opt_level=0)

    def render(gen, buffer=None):
        generated = gen.generate(
            list(compiled.tokens),
            frame=copy.deepcopy(compiled.ir.spill_frame), buffer=buffer,
        )
        return [str(item) for item in generated.buffer.items]

    gen = _generator(build, None)
    expected = render(gen)
    gen.compile_threshold = threshold
    if warm:
        render(gen)
    buffer = CodeBuffer()
    buffer.items = _DroppingItems(gen, sorted(
        rng.sample(range(1, len(expected) + 1), min(drops, len(expected)))
    ))
    assert render(gen, buffer) == expected
    assert not buffer.items.at  # every planned drop happened


# ---- threads ---------------------------------------------------------------------


def test_threads_install_reducers_mid_generate(build):
    """Four threads (more than cores) share one generator whose slots
    compile after two reductions; every other job also drops every
    compiled reducer first, so slots keep being replaced while other
    threads' parses are using them."""
    sources = [
        W.register_pressure(20),
        W.literal_pressure(22),
        W.straightline(60, seed=2),
    ]
    reference = _with_generator(build, _generator(build, None))
    expected = {
        source: compile_source(
            source, build=reference, opt_level=0
        ).object_records
        for source in sources
    }
    gen = _generator(build, 2)
    shared = _with_generator(build, gen)

    def work(job):
        index, source = job
        if index % 2:
            gen.drop_compiled_reducers()
        return compile_source(source, build=shared, opt_level=0).object_records

    jobs = list(enumerate(sources * 12))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(work, jobs, timeout=300))
    finally:
        sys.setswitchinterval(interval)
    assert [
        i for (i, source), got in zip(jobs, results)
        if got != expected[source]
    ] == []


# ---- the emitted reducers --------------------------------------------------------


def _reducible(gen):
    return [pid for pid, kind in enumerate(gen._kinds) if kind == 2]


def test_emitted_module_py_compiles(build, tmp_path):
    """Every reducer of both shipped targets is valid Python source."""
    for gen in (build.code_generator, build_toy().code_generator):
        for pid in _reducible(gen):
            path = tmp_path / f"reducer_{pid}.py"
            path.write_text(SP.emit_module(gen, pid), encoding="utf-8")
            py_compile.compile(str(path), doraise=True)


#: What only :mod:`repro.core.codegen.registers` may name: the
#: allocator's pool maps and pin epoch, and the ``RegState`` fields.
ALLOCATOR_INTERNALS = (
    "_pool_by_nt", "_pin_epoch", "_split_info_by_nt",
    ".use_count", ".pin_epoch", ".stamp", ".busy",
)


@pytest.mark.parametrize(
    "target", ["s370:minimal", "s370:medium", "s370:full", "toy"]
)
def test_reducers_leave_register_state_to_the_allocator(target):
    """Compiled reducers call the register allocator; none reads or
    writes its register pools itself."""
    if target == "toy":
        gen = build_toy().code_generator
    else:
        gen = cached_build(target.split(":")[1]).code_generator
    found = {
        (pid, name)
        for pid in _reducible(gen)
        for name in ALLOCATOR_INTERNALS
        if name in SP.emit_module(gen, pid)
    }
    assert found == set()


def test_emitted_module_loads_and_binds():
    toy = build_toy().code_generator
    for pid in _reducible(toy):
        reducer = SP.load_module(SP.emit_module(toy, pid), toy, pid)
        assert callable(reducer)
        assert reducer.__code__.co_filename == f"<reducer {pid}>"


def test_full_engine_loads_in_bounded_memory(build):
    """Compiling every S/370 reducer, one at a time, stays far below one
    ``compile()`` of all of them as a single module (~119 MB)."""
    gen = _generator(build, None)
    tracemalloc.start()
    try:
        for pid in _reducible(gen):
            SP.load_module(SP.emit_module(gen, pid), gen, pid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40 * 1024 * 1024, f"peak {peak / 2**20:.1f} MiB"
