"""Deterministic fault-injection ("chaos") harness for the pipeline.

The robustness contract of this codebase is simple to state and easy to
break silently: *no matter how the inputs or tables are damaged, the
pipeline either finishes or raises a typed*
:class:`~repro.errors.ReproError` -- *never a hang, never a raw*
``IndexError``/``KeyError``/``RecursionError``.  This module tests that
contract the only way it can be tested: by damaging things on purpose.

Five injectors, one per input from outside the process:

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

Checks that some code path equals another in-process path are not
chaos: they live in tier-1 (compiled reducers against the generic
reducer in ``tests/test_specialize.py``, compiled blocks against
``step()`` in ``tests/test_simulator_predecode.py``, peephole rule
subsets in ``tests/test_peephole.py``, optimizer failures in
``tests/test_degradation_contract.py``), and live-server faults are the
job of the fault drill (:mod:`repro.server.drill`).

Every run is driven by ``random.Random(seed)`` -- same seed, same
damage, same outcome -- so a chaos failure is a reproducible bug report,
not a flake.
"""

from __future__ import annotations

import random
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.core import tables as T
from repro.core.codegen.parser_rt import CodeGenerator, ParserGuards
from repro.core.codegen.loader_records import resolve_module
from repro.core.machine import ClassKind
from repro.core.tables import ParseTables
from repro.ir.linear import IFToken
from repro.machines.s370.objmod import read_object
from repro.machines.s370.simulator import Simulator
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


INJECTORS: Dict[str, Callable[[random.Random, _Fixture], Callable[[], None]]]
INJECTORS = {
    "tables": _inject_tables,
    "ifstream": _inject_ifstream,
    "registers": _inject_registers,
    "objmod": _inject_objmod,
    "buildcache": _inject_buildcache,
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


def _execute(injector: str, seed: int, run: Callable[[], None]) -> ChaosResult:
    try:
        run()
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
        # Damaging the fixture and running the action are classified
        # alike: both must end typed.
        report.results.append(_execute(
            name, run_seed, lambda: INJECTORS[name](rng, fx)()
        ))
    return report
