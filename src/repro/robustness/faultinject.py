"""Deterministic fault-injection ("chaos") harness for the pipeline.

The robustness contract of this codebase is simple to state and easy to
break silently: *no matter how the inputs or tables are damaged, the
pipeline either finishes or raises a typed*
:class:`~repro.errors.ReproError` -- *never a hang, never a raw*
``IndexError``/``KeyError``/``RecursionError``.  This module tests that
contract the only way it can be tested: by damaging things on purpose.

Ten injectors, one per fragile layer:

``tables``
    Corrupt random entries of the LR action matrix (flip to ERROR,
    ACCEPT, random shifts -- including out-of-range states -- and random
    reductions) and drive the skeletal parser over a known-good IF.
    Exercises the parser's corrupt-table guards, the chain-loop
    watchdog and the step budget.
``ifstream``
    Mutate a known-good linearized IF (drop / duplicate / swap /
    replace / truncate tokens) and feed it to the pristine generator.
    Exercises blocking detection and semantic-value validation.
``registers``
    Rebuild the code generator over a machine description whose
    register classes have almost no allocatable registers.  Exercises
    :class:`~repro.errors.RegisterPressureError` and the spill paths.
``objmod``
    Truncate, byte-flip, or card-shuffle a valid object module, then
    parse, load and simulate it under a small instruction budget.
    Exercises the loader's record validation and the simulator's
    memory/opcode/step traps.
``buildcache``
    Truncate, bit-flip, magic-smash or garbage-extend a persistent
    build-cache artifact (:mod:`repro.core.buildcache`), then build
    through the damaged cache.  The artifact loader must reject the
    damage with a typed :class:`~repro.errors.BuildCacheError`, and the
    cached build must degrade to a fresh table construction that
    produces the pristine tables -- a damaged cache may cost time,
    never correctness.
``reducers``
    Compile the code generator's reducers after one to four reductions
    (:mod:`repro.core.specialize`), optionally with every reduced
    production compiled up front, then drop all compiled reducers at
    random points mid-generate.  Slots fall back to the generic reducer
    and compile again; the generated code must be byte-identical to a
    generate that never compiles a reducer.  Reducer damage may cost
    speed, never correctness.
``simcache``
    Run the known-good program in random-length chunks, each ended by
    the step limit, and damage the simulator's compiled-block state
    between chunks: drop every block, drop random blocks, reset the
    leader entry counters, or clear the process-wide block cache.  The
    simulator must recompile or step -- the run's output, total step
    count and instruction counts must match a pristine reference-loop
    run exactly.  Cache damage may cost time, never correctness.
``peephole``
    Compile the known-good program repeatedly with random peephole rule
    subsets -- including randomly disabling rules mid-batch -- and
    require every compile's simulator output to match the ``-O0``
    reference exactly.  The optimizer's correctness contract is that
    *any* subset of rules (each is individually toggleable) preserves
    program behavior; rule damage may cost code quality, never
    correctness.
``optimizer``
    Damage the optimizer's sealed facts -- dataflow solutions and
    interprocedural summary sets alike, through the one
    :data:`repro.opt.dataflow.FAULT_HOOK` -- while a program compiles at
    a random level from ``-O2`` to ``-O4``.  Every consumer verifies a
    seal immediately before acting on the facts, and the compiler
    answers a failed check by recompiling one level lower, so every
    fired fault must show up as one ``stats["degraded"]`` event and the
    object records must be byte-identical to a clean compile at the last
    ``fell_back_to``.  Fact damage may cost optimization, never
    correctness.
``server``
    Run faults against a *live* compile server (:mod:`repro.server`)
    over real sockets: worker crashes injected at a random pipeline
    phase, per-phase latency pushed past the request deadline, and
    queue-overflow storms of concurrent requests.  Every response must
    be a 2xx or a typed JSON error envelope -- never a traceback, never
    a hang -- and after the fault clears the server must serve clean
    requests again (the circuit breaker may degrade to the baseline
    generator in between; that is a 200, by design).

Every run is driven by ``random.Random(seed)`` -- same seed, same
damage, same outcome -- so a chaos failure is a reproducible bug report,
not a flake.  (The ``server`` injector is the one exception where wall
clocks are involved: the *damage* is seed-deterministic, but scheduling
noise can shift which typed error a response carries; the pass/fail
contract -- typed envelopes only, recovery afterwards -- is stable.)
"""

from __future__ import annotations

import copy
import random
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError, StepLimitError
from repro.core import tables as T
from repro.core.codegen.parser_rt import CodeGenerator, ParserGuards
from repro.core.codegen.loader_records import resolve_module
from repro.core.machine import ClassKind
from repro.core.tables import ParseTables
from repro.ir.linear import IFToken
from repro.machines.s370.objmod import read_object
from repro.machines.s370.simulator import Simulator, _compile_block
from repro.machines.s370.spec import machine_description

#: Guards used for every chaos parse: tight enough that a watchdog trip
#: is fast, loose enough that the undamaged program would still compile.
CHAOS_GUARDS = ParserGuards(step_budget=200_000, chain_limit=4096)

#: Instruction budget for simulating damaged modules.
CHAOS_SIM_STEPS = 300_000

#: The known-good program every injector starts from: exercises
#: arithmetic, comparisons, control flow, a procedure call with
#: parameters, and writeln -- enough grammar to give the injectors a
#: wide blast radius.
CHAOS_PROGRAM = """
program chaos;
var i, total: integer;
procedure accum(x: integer);
begin
  total := total + x * x - (x div 2)
end;
begin
  total := 0;
  i := 1;
  while i <= 6 do
  begin
    accum(i);
    if total > 10 then
      total := total - 1;
    i := i + 1
  end;
  writeln(total)
end.
"""


class _Fixture:
    """Cached known-good artifacts the injectors damage copies of."""

    def __init__(self, variant: str = "full"):
        from repro.pascal.compiler import cached_build, compile_source

        self.variant = variant
        self.build = cached_build(variant)
        compiled = compile_source(CHAOS_PROGRAM, variant=variant)
        self.ir = compiled.ir
        self.tokens: List[IFToken] = list(compiled.tokens)
        self.object_records: bytes = compiled.object_records
        self.symbols: List[str] = [
            s
            for s in self.build.tables.symbols
            if s != self.build.tables.end_symbol
        ]


_FIXTURES: Dict[str, _Fixture] = {}


def _fixture(variant: str) -> _Fixture:
    if variant not in _FIXTURES:
        _FIXTURES[variant] = _Fixture(variant)
    return _FIXTURES[variant]


# ---- injectors -------------------------------------------------------------------


def _inject_tables(rng: random.Random, fx: _Fixture) -> Callable[[], None]:
    """Corrupt a batch of random action-matrix entries, then parse."""
    tables = ParseTables(
        symbols=list(fx.build.tables.symbols),
        matrix=[list(row) for row in fx.build.tables.matrix],
    )
    nproductions = len(fx.build.sdts.productions)
    # Enough corruption that most runs actually hit a consulted entry
    # (the parse only visits a sliver of the matrix).
    for _ in range(rng.randint(8, 128)):
        state = rng.randrange(tables.nstates)
        col = rng.randrange(tables.nsymbols)
        roll = rng.random()
        if roll < 0.25:
            action = T.ERROR
        elif roll < 0.40:
            action = T.ACCEPT
        elif roll < 0.75:
            # Half the shifts target states that do not exist.
            action = T.encode_shift(rng.randrange(2 * tables.nstates))
        else:
            action = T.encode_reduce(rng.randrange(2 * nproductions))
        tables.matrix[state][col] = action

    generator = CodeGenerator(fx.build.sdts, tables, fx.build.machine)

    def action() -> None:
        generated = generator.generate(
            list(fx.tokens), frame=fx.ir.spill_frame, guards=CHAOS_GUARDS
        )
        resolve_module(
            generated, fx.build.machine, entry_label=fx.ir.main_label
        )

    return action


def _inject_ifstream(rng: random.Random, fx: _Fixture) -> Callable[[], None]:
    """Drop/duplicate/swap/replace/truncate IF tokens, then parse."""
    tokens = list(fx.tokens)
    for _ in range(rng.randint(1, 4)):
        if not tokens:
            break
        index = rng.randrange(len(tokens))
        op = rng.randrange(5)
        if op == 0:
            del tokens[index]
        elif op == 1:
            tokens.insert(index, tokens[rng.randrange(len(tokens))])
        elif op == 2:
            value = rng.choice(
                [None, 0, 1, rng.randint(-(2**31), 2**31 - 1)]
            )
            tokens[index] = IFToken(rng.choice(fx.symbols), value)
        elif op == 3:
            del tokens[index:]
        else:
            other = rng.randrange(len(tokens))
            tokens[index], tokens[other] = tokens[other], tokens[index]

    def action() -> None:
        generated = fx.build.code_generator.generate(
            tokens, frame=fx.ir.spill_frame, guards=CHAOS_GUARDS
        )
        resolve_module(
            generated, fx.build.machine, entry_label=fx.ir.main_label
        )

    return action


def _inject_registers(rng: random.Random, fx: _Fixture) -> Callable[[], None]:
    """Shrink allocatable register sets to 1-2 registers, then parse."""
    machine = machine_description()
    classes = {}
    for key, cls in machine.classes.items():
        if cls.kind is ClassKind.CC or not cls.allocatable:
            classes[key] = cls
            continue
        keep = rng.randint(1, min(2, len(cls.allocatable)))
        shrunk = tuple(sorted(rng.sample(list(cls.allocatable), keep)))
        classes[key] = replace(cls, allocatable=shrunk)
    crippled = replace(machine, classes=classes)
    generator = CodeGenerator(fx.build.sdts, fx.build.tables, crippled)
    # Half the runs get no spill frame, so exhaustion cannot spill and
    # must surface as RegisterPressureError.
    frame = fx.ir.spill_frame if rng.random() < 0.5 else None

    def action() -> None:
        generated = generator.generate(
            list(fx.tokens), frame=frame, guards=CHAOS_GUARDS
        )
        resolve_module(generated, crippled, entry_label=fx.ir.main_label)

    return action


def _inject_objmod(rng: random.Random, fx: _Fixture) -> Callable[[], None]:
    """Damage a valid object module, then parse, load and simulate it."""
    blob = bytearray(fx.object_records)
    cards = len(blob) // 80
    op = rng.randrange(4)
    if op == 0:
        # Truncate at an arbitrary byte (usually mid-card).
        del blob[rng.randrange(len(blob)) :]
    elif op == 1:
        for _ in range(rng.randint(1, 16)):
            blob[rng.randrange(len(blob))] = rng.randrange(256)
    elif op == 2:
        start = rng.randrange(cards) * 80
        del blob[start : start + 80]
    else:
        start = rng.randrange(cards) * 80
        blob.extend(blob[start : start + 80])
    damaged = bytes(blob)

    def action() -> None:
        obj = read_object(damaged)
        simulator = Simulator()
        simulator.load_image(obj.to_image())
        simulator.run(max_steps=CHAOS_SIM_STEPS)

    return action


#: Pristine build-cache artifacts by variant: (spec text, machine,
#: extra semops, fingerprint, artifact bytes).  Built once, damaged
#: per run.
_BC_FIXTURES: Dict[str, Tuple] = {}


def _buildcache_artifact(variant: str) -> Tuple:
    entry = _BC_FIXTURES.get(variant)
    if entry is None:
        from repro.core import buildcache
        from repro.machines.s370.spec import (
            extra_semops,
            machine_description,
            spec_text,
        )

        text = spec_text(variant)
        machine = machine_description()
        extra = extra_semops()
        fingerprint = buildcache.build_fingerprint(text, machine)
        with tempfile.TemporaryDirectory(prefix="repro-chaos-seed-") as tmp:
            cache_dir = Path(tmp)
            buildcache.cached_build(
                text, machine, extra_semops=extra, cache_dir=cache_dir
            )
            blob = buildcache.artifact_path(
                cache_dir, fingerprint
            ).read_bytes()
        entry = (text, machine, extra, fingerprint, blob)
        _BC_FIXTURES[variant] = entry
    return entry


def _inject_buildcache(rng: random.Random, fx: _Fixture) -> Callable[[], None]:
    """Damage a cache artifact, then build through the damaged cache."""
    from repro.core import buildcache, buildstats
    from repro.errors import BuildCacheError

    text, machine, extra, fingerprint, pristine = _buildcache_artifact(
        fx.variant
    )
    blob = bytearray(pristine)
    op = rng.randrange(4)
    if op == 0:
        # Truncate at an arbitrary byte.
        del blob[rng.randrange(len(blob)) :]
    elif op == 1:
        for _ in range(rng.randint(1, 16)):
            blob[rng.randrange(len(blob))] ^= 1 << rng.randrange(8)
    elif op == 2:
        blob[0:8] = bytes(rng.randrange(256) for _ in range(8))
    else:
        blob.extend(rng.randrange(256) for _ in range(rng.randint(1, 64)))
    damaged = bytes(blob)

    def action() -> None:
        # The artifact loader must reject the damage with a typed error.
        try:
            buildcache.unpack_artifact(
                damaged, expected_fingerprint=fingerprint
            )
        except BuildCacheError:
            pass
        # And the cached build must fall back to a fresh construction
        # that reproduces the pristine tables.
        with tempfile.TemporaryDirectory(prefix="repro-chaos-cache-") as tmp:
            cache_dir = Path(tmp)
            path = buildcache.artifact_path(cache_dir, fingerprint)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(damaged)
            corrupt_before = buildstats.get("cache_corrupt")
            build = buildcache.cached_build(
                text, machine, extra_semops=extra, cache_dir=cache_dir
            )
            if build.tables.matrix != fx.build.tables.matrix:
                raise RuntimeError(
                    "damaged cache artifact produced different tables"
                )
            if buildstats.get("cache_corrupt") == corrupt_before:
                raise RuntimeError(
                    "artifact damage was not detected as corruption"
                )

    return action


class _DroppingItems(list):
    """A code buffer's item list that drops every compiled reducer of
    ``gen`` as soon as it holds ``at[0]`` items (then ``at[1]``, ...)."""

    def __init__(self, gen: CodeGenerator, at: List[int]):
        super().__init__()
        self.gen = gen
        self.at = at

    def append(self, item) -> None:
        super().append(item)
        if self.at and len(self) >= self.at[0]:
            del self.at[0]
            self.gen.drop_compiled_reducers()


def _inject_reducers(rng: random.Random, fx: _Fixture) -> Callable[[], None]:
    """Compile reducers early and drop them mid-generate; the code must
    match a generate that never compiles one."""
    from repro.core.codegen.emitter import CodeBuffer

    threshold = rng.randint(1, 4)
    warm = rng.random() < 0.5
    drops = rng.randint(1, 6)

    def render(gen: CodeGenerator, buffer=None) -> List[str]:
        generated = gen.generate(
            list(fx.tokens), frame=copy.deepcopy(fx.ir.spill_frame),
            guards=CHAOS_GUARDS, buffer=buffer,
        )
        return [str(item) for item in generated.buffer.items]

    def action() -> None:
        gen = CodeGenerator(fx.build.sdts, fx.build.tables, fx.build.machine)
        gen.compile_threshold = None
        expected = render(gen)
        gen.compile_threshold = threshold
        if warm:
            # Start with every reduced production already compiled.
            render(gen)
        buffer = CodeBuffer()
        buffer.items = _DroppingItems(
            gen, sorted(rng.sample(range(1, len(expected) + 1),
                                   min(drops, len(expected)))),
        )
        if render(gen, buffer) != expected:
            raise RuntimeError(
                "dropping compiled reducers mid-generate changed the "
                "generated code"
            )

    return action


#: Reference-loop runs of the chaos program, by variant:
#: (output, steps, instruction_counts).
_SIM_REFERENCES: Dict[str, Tuple[str, int, Dict[str, int]]] = {}


def _sim_reference(fx: _Fixture) -> Tuple[str, int, Dict[str, int]]:
    entry = _SIM_REFERENCES.get(fx.variant)
    if entry is None:
        obj = read_object(fx.object_records)
        reference = Simulator(predecode=False)
        reference.load_image(obj.to_image())
        result = reference.run(max_steps=CHAOS_SIM_STEPS)
        entry = (result.output, result.steps, result.instruction_counts)
        _SIM_REFERENCES[fx.variant] = entry
    return entry


def _inject_simcache(rng: random.Random, fx: _Fixture) -> Callable[[], None]:
    """Damage the compiled-block state between chunks of a run; the run
    must not diverge."""
    expected_output, expected_steps, expected_counts = _sim_reference(fx)

    def action() -> None:
        obj = read_object(fx.object_records)
        sim = Simulator()
        sim.load_image(obj.to_image())
        steps = 0
        while True:
            if steps >= CHAOS_SIM_STEPS:
                raise RuntimeError("simcache run exceeded step budget")
            chunk = rng.randint(1, 40)
            try:
                result = sim.run(max_steps=chunk)
            except StepLimitError:
                # Raised between instructions, so the next run resumes
                # exactly where this one stopped.
                steps += chunk
            else:
                steps += result.steps
                break
            op = rng.randrange(4)
            if op == 0:
                # Wholesale invalidation: every block recompiles.
                for pc in sorted(sim.compiled_blocks):
                    sim._forget(pc)
            elif op == 1 and sim.compiled_blocks:
                live = sorted(sim.compiled_blocks)
                for pc in rng.sample(live, rng.randint(1, len(live))):
                    sim._forget(pc)
            elif op == 2:
                sim._entries.clear()
            else:
                _compile_block.cache_clear()
        if (
            result.output != expected_output
            or steps != expected_steps
            or result.instruction_counts != expected_counts
        ):
            raise RuntimeError(
                "compiled-block damage changed the run: "
                f"steps {steps} vs {expected_steps}, "
                f"output {result.output!r} vs {expected_output!r}"
            )

    return action


#: ``-O0`` reference outputs of the chaos program, by variant.
_PEEP_REFERENCES: Dict[str, str] = {}


def _peephole_reference(fx: _Fixture) -> str:
    output = _PEEP_REFERENCES.get(fx.variant)
    if output is None:
        from repro.pascal.compiler import compile_source

        compiled = compile_source(
            CHAOS_PROGRAM, variant=fx.variant, opt_level=0
        )
        output = compiled.run(max_steps=CHAOS_SIM_STEPS).output
        _PEEP_REFERENCES[fx.variant] = output
    return output


def _inject_peephole(rng: random.Random, fx: _Fixture) -> Callable[[], None]:
    """Compile with random rule subsets; outputs must match ``-O0``."""
    from repro.opt.peephole import ALL_RULES

    expected = _peephole_reference(fx)
    # A small batch of compiles; the available rule pool shrinks at
    # random between compiles (rules "failing" mid-batch).
    pool = list(ALL_RULES)
    plans: List[List[str]] = []
    for _ in range(rng.randint(2, 4)):
        rng.shuffle(pool)
        plans.append(sorted(pool[: rng.randint(0, len(pool))]))
        if pool and rng.random() < 0.5:
            pool.remove(rng.choice(pool))

    def action() -> None:
        from repro.pascal.compiler import compile_source

        for plan in plans:
            compiled = compile_source(
                CHAOS_PROGRAM, variant=fx.variant,
                opt_level=1, peephole_rules=plan,
            )
            result = compiled.run(max_steps=CHAOS_SIM_STEPS)
            if result.trap is not None or result.output != expected:
                raise RuntimeError(
                    f"peephole rule subset {plan} changed the program: "
                    f"trap={result.trap!r}, "
                    f"output {result.output!r} vs {expected!r}"
                )

    return action


#: Every fact set a compile seals, by the name the fault hook sees.
_FACT_SETS = (
    "liveness", "available-stores", "available-copies",
    "memory-deadness", "available-exprs", "summaries",
)


def _damage_facts(facts, mode: str, rng: random.Random) -> bool:
    """Damage one freshly sealed solution or summary set in place;
    ``False`` when there is nothing to damage."""
    if mode == "unseal":
        facts.digest = ""
        return True
    table = facts.fact_maps()[-1]  # a solution's outs, or the summaries
    if not table:
        return False
    key = rng.choice(sorted(table))
    if mode == "drop":
        table.clear()
    elif facts.name == "summaries":
        # The most dangerous lie: a routine that clobbers nothing.
        table[key] = replace(
            table[key], barrier=False, reason="chaos",
            clobbers=frozenset(), writes=(), must_writes=(),
            sets_cc=False, reads_cc=False,
        )
    elif table[key] is None:
        table[key] = frozenset()
    else:
        # A member no real analysis produces.
        table[key] = table[key] | {("bogus", 99)}
    return True


def _inject_optimizer(rng: random.Random, fx: _Fixture) -> Callable[[], None]:
    """Damage sealed optimizer facts mid ``-O2``..``-O4`` compile.

    The chaos program gives the summaries a call graph; the
    register-pressure program gives the spill planner ten spills to
    plan.  Each fired fault must cost exactly one level, and the object
    records must match a clean compile at the level the compile ended
    at.
    """
    from repro.bench.workloads import register_pressure

    level = rng.randint(2, 4)
    name, source = rng.choice([
        ("chaos", CHAOS_PROGRAM),
        ("register_pressure(20)", register_pressure(20)),
    ])
    target = rng.choice(_FACT_SETS + ("*",))
    mode = rng.choice(["mutate", "drop", "unseal"])
    probability = rng.uniform(0.4, 1.0)
    hook_seed = rng.getrandbits(32)

    def action() -> None:
        from repro.opt import dataflow
        from repro.pascal.compiler import compile_source

        local = random.Random(hook_seed)
        fired: List[str] = []

        def hook(facts) -> None:
            if target != "*" and facts.name != target:
                return
            if local.random() > probability:
                return
            if _damage_facts(facts, mode, local):
                fired.append(facts.name)

        dataflow.FAULT_HOOK = hook
        try:
            compiled = compile_source(
                source, variant=fx.variant, opt_level=level
            )
        finally:
            dataflow.FAULT_HOOK = None
        fault = f"optimizer fault ({mode} on {target}) at -O{level} on {name}"
        chain = [e["fell_back_to"] for e in compiled.stats["degraded"]]
        if chain != list(range(level - 1, level - 1 - len(fired), -1)):
            raise RuntimeError(
                f"{fault}: {len(fired)} fault(s) fired but the compile "
                f"fell back along {chain}"
            )
        final = chain[-1] if chain else level
        clean = compile_source(source, variant=fx.variant, opt_level=final)
        if compiled.object_records != clean.object_records:
            raise RuntimeError(
                f"{fault}: object records differ from a clean -O{final} "
                "compile"
            )

    return action


class ServerChaosControl:
    """Mutable fault program for a live server's phase-boundary hook.

    The server's ``fault_hook`` closes over one of these; the injector
    (and the fault drill) mutate it between requests.  ``mode`` is
    ``None`` (healthy), ``"crash"`` (raise on entering ``phase``) or
    ``"latency"`` (sleep ``sleep_s`` on entering ``phase``).
    """

    def __init__(self):
        self.mode: Optional[str] = None
        self.phase: str = "select"
        self.sleep_s: float = 0.0

    def clear(self) -> None:
        self.mode = None

    def hook(self, phase: str) -> None:
        mode = self.mode
        if mode == "crash" and phase == self.phase:
            raise RuntimeError(
                f"chaos: injected worker crash entering phase {phase!r}"
            )
        if mode == "latency" and phase == self.phase:
            import time

            time.sleep(self.sleep_s)


#: Live chaos servers by variant: (handle, control).  Started lazily on
#: a daemon thread; deliberately short deadline/queue/cooldown so every
#: fault class is cheap to provoke.
_SERVER_FIXTURES: Dict[str, Tuple] = {}

#: The wire phases a compile/run request passes through, for targeting.
_SERVER_PHASES = (
    "frontend", "shape", "linearize", "select",
    "peephole", "assemble", "simulate",
)


def _server_fixture(variant: str) -> Tuple:
    entry = _SERVER_FIXTURES.get(variant)
    if entry is None:
        from repro.server.app import ServerConfig
        from repro.server.harness import start_server

        control = ServerChaosControl()
        handle = start_server(ServerConfig(
            port=0, jobs=2, queue_limit=2, deadline_ms=700.0,
            breaker_threshold=3, breaker_cooldown_s=0.5,
            variant=variant, fault_hook=control.hook,
        ))
        entry = (handle, control)
        _SERVER_FIXTURES[variant] = entry
    return entry


#: Envelope codes the wire contract allows (anything else is a bug).
def _known_codes() -> set:
    from repro.errors import ERROR_CODES

    return {code for code, _, _ in ERROR_CODES.values()}


def _check_server_response(status: int, body: Dict, source: str) -> None:
    """The per-response contract: 2xx payload or typed envelope."""
    if 200 <= status < 300:
        if body.get("ok") not in (True, False):
            raise RuntimeError(
                f"{source}: 2xx response without an 'ok' field: {body!r}"
            )
        return
    error = body.get("error")
    if body.get("ok") is not False or not isinstance(error, dict):
        raise RuntimeError(
            f"{source}: non-2xx response is not an error envelope: "
            f"{status} {body!r}"
        )
    if error.get("code") not in _known_codes():
        raise RuntimeError(
            f"{source}: unknown envelope code {error.get('code')!r}"
        )
    if error.get("http_status") != status:
        raise RuntimeError(
            f"{source}: envelope http_status {error.get('http_status')!r} "
            f"disagrees with wire status {status}"
        )
    message = error.get("message", "")
    if not message or "Traceback" in str(body):
        raise RuntimeError(
            f"{source}: envelope message missing or traceback leaked"
        )


def _server_recovers(handle, control, attempts: int = 80) -> None:
    """Clear faults and require a clean *table-path* 200 within a
    bounded wait (a degraded 200 means the breaker has not closed)."""
    import time

    control.clear()
    last = None
    for _ in range(attempts):
        status, body, _headers = handle.request(
            "POST", "/compile",
            {"name": "recovery", "source": CHAOS_PROGRAM},
        )
        _check_server_response(status, body, "recovery")
        if status == 200 and not body.get("degraded"):
            return
        last = (status, body.get("error", {}).get("code"),
                body.get("degraded"))
        time.sleep(0.1)
    raise RuntimeError(
        f"server did not recover after fault cleared; last={last!r}"
    )


def _inject_server(rng: random.Random, fx: _Fixture) -> Callable[[], None]:
    """Fault a live compile server; responses must stay typed."""
    handle, control = _server_fixture(fx.variant)
    scenario = rng.choice(
        ["crash", "crash", "latency", "overflow", "overflow"]
    )
    phase = rng.choice(_SERVER_PHASES)

    def action() -> None:
        import threading

        try:
            if scenario == "crash":
                control.mode = "crash"
                # "simulate" is only reached by /run; use /run so every
                # targeted phase can actually fire.
                control.phase = phase
                status, body, _headers = handle.request(
                    "POST", "/run",
                    {"name": "chaos-crash", "source": CHAOS_PROGRAM},
                )
                _check_server_response(status, body, "crash")
                if status not in (200, 500, 504, 429):
                    raise RuntimeError(
                        f"crash injection produced status {status}: "
                        f"{body!r}"
                    )
            elif scenario == "latency":
                deadline_s = handle.server.config.deadline_ms / 1000.0
                control.sleep_s = deadline_s + 0.4
                control.phase = phase
                control.mode = "latency"
                status, body, _headers = handle.request(
                    "POST", "/run",
                    {"name": "chaos-slow", "source": CHAOS_PROGRAM},
                )
                _check_server_response(status, body, "latency")
                if status not in (200, 504, 429):
                    raise RuntimeError(
                        f"latency injection produced status {status}: "
                        f"{body!r}"
                    )
            else:  # overflow storm
                control.sleep_s = 0.25
                control.phase = "frontend"
                control.mode = "latency"
                config = handle.server.config
                burst = config.jobs + config.queue_limit + 4
                results: List[Tuple[int, Dict]] = []
                lock = threading.Lock()

                def fire(index: int) -> None:
                    status, body, headers = handle.request(
                        "POST", "/run",
                        {"name": f"storm-{index}",
                         "source": CHAOS_PROGRAM},
                    )
                    with lock:
                        results.append((status, body, headers))

                threads = [
                    threading.Thread(target=fire, args=(i,))
                    for i in range(burst)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30.0)
                if len(results) != burst:
                    raise RuntimeError(
                        f"overflow storm: {burst - len(results)} "
                        f"requests hung"
                    )
                rejected = 0
                for status, body, headers in results:
                    _check_server_response(status, body, "overflow")
                    if status == 429:
                        rejected += 1
                        if "Retry-After" not in headers:
                            raise RuntimeError(
                                "429 response missing Retry-After"
                            )
                if rejected == 0:
                    raise RuntimeError(
                        f"overflow storm of {burst} concurrent requests "
                        f"produced no 429s"
                    )
        finally:
            _server_recovers(handle, control)

    return action


INJECTORS: Dict[str, Callable[[random.Random, _Fixture], Callable[[], None]]]
INJECTORS = {
    "tables": _inject_tables,
    "ifstream": _inject_ifstream,
    "registers": _inject_registers,
    "objmod": _inject_objmod,
    "buildcache": _inject_buildcache,
    "reducers": _inject_reducers,
    "simcache": _inject_simcache,
    "peephole": _inject_peephole,
    "optimizer": _inject_optimizer,
    "server": _inject_server,
}


# ---- harness ---------------------------------------------------------------------


@dataclass(frozen=True)
class ChaosResult:
    """Outcome of one seeded injection run."""

    injector: str
    seed: int
    #: ``survived`` (pipeline finished), ``typed-error`` (a ReproError
    #: subclass -- the contract), or ``UNTYPED`` (a raw exception
    #: escaped -- a robustness bug).
    outcome: str
    error_type: str = ""
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.outcome in ("survived", "typed-error")

    def __str__(self) -> str:
        tail = f": {self.error_type}: {self.detail}" if self.error_type else ""
        return f"[{self.injector} seed={self.seed}] {self.outcome}{tail}"


@dataclass
class ChaosReport:
    """All results of a chaos campaign, plus summary helpers."""

    results: List[ChaosResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def failures(self) -> List[ChaosResult]:
        return [r for r in self.results if not r.ok]

    def counts(self) -> Dict[str, Dict[str, int]]:
        out: Dict[str, Dict[str, int]] = {}
        for r in self.results:
            bucket = out.setdefault(r.injector, {})
            bucket[r.outcome] = bucket.get(r.outcome, 0) + 1
        return out

    def render(self) -> str:
        lines = [f"chaos: {len(self.results)} runs"]
        for injector in sorted(self.counts()):
            buckets = self.counts()[injector]
            detail = ", ".join(
                f"{outcome}={count}"
                for outcome, count in sorted(buckets.items())
            )
            lines.append(f"  {injector:10s} {detail}")
        for failure in self.failures():
            lines.append(f"  FAIL {failure}")
        lines.append("PASS" if self.ok else "FAIL")
        return "\n".join(lines)


def _execute(injector: str, seed: int, action: Callable[[], None]) -> ChaosResult:
    try:
        action()
    except ReproError as error:
        return ChaosResult(
            injector,
            seed,
            "typed-error",
            type(error).__name__,
            str(error)[:200],
        )
    except Exception as error:  # noqa: BLE001 -- the whole point
        return ChaosResult(
            injector,
            seed,
            "UNTYPED",
            type(error).__name__,
            repr(error)[:200],
        )
    return ChaosResult(injector, seed, "survived")


def run_chaos(
    seed: int = 0,
    runs: int = 100,
    injectors: Optional[Sequence[str]] = None,
    variant: str = "full",
) -> ChaosReport:
    """Run ``runs`` seeded injections, cycling through the injectors.

    Deterministic: run ``i`` of campaign ``seed`` uses the derived seed
    ``seed * 1_000_003 + i`` for both injector choice of damage and
    classification, so any failure line can be replayed exactly.
    """
    names = sorted(injectors) if injectors else sorted(INJECTORS)
    unknown = [n for n in names if n not in INJECTORS]
    if unknown:
        raise ValueError(
            f"unknown injector(s) {unknown}; "
            f"available: {sorted(INJECTORS)}"
        )
    fx = _fixture(variant)
    report = ChaosReport()
    for i in range(runs):
        name = names[i % len(names)]
        run_seed = seed * 1_000_003 + i
        rng = random.Random(run_seed)
        try:
            action = INJECTORS[name](rng, fx)
            result = _execute(name, run_seed, action)
        except ReproError as error:
            result = ChaosResult(
                name, run_seed, "typed-error",
                type(error).__name__, str(error)[:200],
            )
        except Exception as error:  # noqa: BLE001
            result = ChaosResult(
                name, run_seed, "UNTYPED",
                type(error).__name__, repr(error)[:200],
            )
        report.results.append(result)
    return report
