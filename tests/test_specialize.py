"""The table specializer: generated-module integrity, cache behavior,
byte-identical output, and graceful degradation.

Contract under test (see :mod:`repro.core.specialize`):

* the specialized engine emits **byte-identical** object code to the
  interpreted table lane on every bench workload;
* the cached module is content-addressed: a corrupt or truncated file
  is deleted and regenerated, a stale specializer version or edited
  builder module changes the fingerprint and misses the cache, and a
  module bound against the wrong generator raises a typed
  :class:`~repro.errors.SpecializeError` instead of miscompiling;
* a warm start -- including a warm start in a *new process* -- performs
  zero module emissions, measured by the
  :mod:`repro.core.buildstats` counters (``specialize_emits``);
* every failure mode degrades to the interpreted lane with a
  ``degraded_reason``; specialization is never a correctness
  dependency.
"""

from __future__ import annotations

import hashlib
import json
import os
import py_compile
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from repro.bench import workloads as W
from repro.core import buildcache as BC
from repro.core import buildstats
from repro.core import specialize as SP
from repro.errors import SpecializeError
from repro.machines.toy.spec import (
    machine_description as toy_machine,
    spec_text as toy_spec_text,
)
from repro.pascal.compiler import cached_build, compile_source

REPO_ROOT = Path(__file__).resolve().parent.parent

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


@pytest.fixture(autouse=True)
def _default_opt_level(monkeypatch):
    """Pin the default optimization level: ``-O3`` routes generation
    through the spill planner, which bypasses the specialized engine by
    design -- this file tests the engine itself."""
    monkeypatch.delenv("REPRO_OPT_LEVEL", raising=False)


@pytest.fixture(scope="module")
def build():
    return cached_build()


@pytest.fixture(scope="module")
def engine(build):
    return SP.build_engine(build)


@pytest.fixture()
def pristine_generator(build):
    """The build's generator with the specialized lane detached, and
    any test-applied engine cleaned up afterwards."""
    gen = build.code_generator
    saved = (gen.specialized, gen.specialize_degraded_reason)
    gen.specialized = None
    gen.specialize_degraded_reason = None
    yield gen
    gen.specialized, gen.specialize_degraded_reason = saved


# ---- byte-identical output gate --------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_specialized_lane_byte_identical(name, build, engine,
                                         pristine_generator):
    gen = pristine_generator
    interpreted = compile_source(WORKLOADS[name], build=build)
    gen.specialized = engine
    specialized = compile_source(WORKLOADS[name], build=build)
    assert specialized.image() == interpreted.image()
    assert specialized.object_records == interpreted.object_records
    assert specialized.generated.stats.get("specialized") is True
    assert "specialized" not in interpreted.generated.stats


def test_specialized_lane_same_runtime_behavior(build, engine,
                                                pristine_generator):
    gen = pristine_generator
    interp = compile_source(WORKLOADS["loop_kernel"], build=build).run()
    gen.specialized = engine
    spec = compile_source(WORKLOADS["loop_kernel"], build=build).run()
    assert spec == interp


# ---- generated-module integrity --------------------------------------------------


@pytest.fixture(scope="module")
def toy_module_source():
    from repro.core.cogg import build_code_generator

    build = build_code_generator(toy_spec_text(), toy_machine())
    fingerprint = SP.specialize_fingerprint("test-build")
    return build, fingerprint, SP.emit_module(build, fingerprint)


def test_emitted_module_loads_and_binds(toy_module_source):
    build, fingerprint, source = toy_module_source
    namespace = SP.load_module(source, fingerprint)
    assert namespace["MAGIC"] == SP.MODULE_MAGIC
    engine = namespace["bind"](build.code_generator)
    assert callable(engine)


def test_emitted_module_py_compiles(toy_module_source, tmp_path):
    _, _, source = toy_module_source
    path = tmp_path / "module.py"
    path.write_text(source, encoding="utf-8")
    py_compile.compile(str(path), doraise=True)


@pytest.mark.parametrize("fraction", [8, 2, 1])
def test_truncation_rejected(toy_module_source, fraction):
    """Losing any tail -- from most of the file down to part of the
    checksum line itself -- is detected.  (Only the trailing newline
    may be lost without damage: the checksummed body is intact.)"""
    _, fingerprint, source = toy_module_source
    cut = max(5, len(source) - len(source) // fraction)
    with pytest.raises(SpecializeError) as exc:
        SP.load_module(source[:cut], fingerprint)
    assert exc.value.reason in ("truncated", "bad-checksum")


def test_bit_flip_rejected(toy_module_source):
    _, fingerprint, source = toy_module_source
    damaged = source.replace("return", "retvrn", 1)
    with pytest.raises(SpecializeError) as exc:
        SP.load_module(damaged, fingerprint)
    assert exc.value.reason == "bad-checksum"


def test_stale_version_rejected(toy_module_source, monkeypatch):
    build, fingerprint, _ = toy_module_source
    monkeypatch.setattr(SP, "SPECIALIZER_VERSION", SP.SPECIALIZER_VERSION + 1)
    stale = SP.emit_module(build, fingerprint)
    monkeypatch.undo()
    with pytest.raises(SpecializeError) as exc:
        SP.load_module(stale, fingerprint)
    assert exc.value.reason == "stale-version"


def test_wrong_fingerprint_rejected(toy_module_source):
    _, _, source = toy_module_source
    with pytest.raises(SpecializeError) as exc:
        SP.load_module(source, "somebody-else's-build")
    assert exc.value.reason == "stale-fingerprint"


def test_bind_against_wrong_generator_rejected(toy_module_source, build):
    _, fingerprint, source = toy_module_source
    namespace = SP.load_module(source, fingerprint)
    with pytest.raises(SpecializeError) as exc:
        namespace["bind"](build.code_generator)  # the S/370 generator
    assert exc.value.reason in (
        "symbol-mismatch", "shape-mismatch", "plan-mismatch",
    )


def _rechecksum(source: str) -> str:
    """``source`` with its checksum line recomputed over the body."""
    body = source[: source.rfind('\nCHECKSUM = "') + 1]
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    return body + f'CHECKSUM = "{digest}"\n'


def test_full_engine_loads_in_bounded_memory(build):
    """Compiling one definition at a time keeps the loader's peak far
    below one ``compile()`` of the whole 1.6 MB module (~119 MB)."""
    fingerprint = SP.specialize_fingerprint("memory-test")
    source = SP.emit_module(build, fingerprint)
    tracemalloc.start()
    try:
        SP.load_module(source, fingerprint)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40 * 1024 * 1024, f"peak {peak / 2**20:.1f} MiB"


def test_damaged_chunk_rejected_before_any_chunk_runs(toy_module_source):
    """A syntax error in a late definition is found before the module
    header executes: the header here would raise if it ever ran."""
    _, fingerprint, source = toy_module_source
    damaged = source.replace(
        "\nfrom collections import deque\n",
        "\nraise RuntimeError('header ran')\nfrom collections import deque\n",
        1,
    ).replace("    def generate(", "    def generate((", 1)
    with pytest.raises(SpecializeError) as exc:
        SP.load_module(_rechecksum(damaged), fingerprint)
    assert exc.value.reason == "syntax"


# ---- cache behavior (attach) -----------------------------------------------------


def _toy_attach(tmp_path):
    """One cached_build against an isolated cache dir; returns the
    build (attach runs inside cached_build)."""
    return BC.cached_build(toy_spec_text(), toy_machine(),
                           cache_dir=tmp_path)


def test_attach_cold_emits_then_warm_loads(tmp_path):
    before = buildstats.snapshot()
    cold = _toy_attach(tmp_path)
    mid = buildstats.snapshot()
    assert cold.code_generator.specialized is not None
    assert mid["specialize_emits"] == before["specialize_emits"] + 1
    modules = list(tmp_path.glob("*" + SP.MODULE_SUFFIX))
    assert len(modules) == 1

    warm = _toy_attach(tmp_path)
    after = buildstats.snapshot()
    assert warm.code_generator.specialized is not None
    # The whole point: zero regeneration on a warm start.
    assert after["specialize_emits"] == mid["specialize_emits"]
    assert after["specialize_cache_hits"] == mid["specialize_cache_hits"] + 1
    assert list(tmp_path.glob("*" + SP.MODULE_SUFFIX)) == modules


def test_cached_engine_line_numbers_match_file(tmp_path):
    """Code objects point at their ``def`` lines in the cached file, so
    tracebacks and ``inspect`` read the right source."""
    build = _toy_attach(tmp_path)
    [path] = tmp_path.glob("*" + SP.MODULE_SUFFIX)
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    fingerprint = build.code_generator.specialize_info["fingerprint"]
    namespace = SP.load_module(text, fingerprint)
    names = [n for n in namespace if n.startswith("_mk_")] + ["bind"]
    assert len(names) > 1
    for name in names:
        first = namespace[name].__code__.co_firstlineno
        assert lines[first - 1].startswith(f"def {name}("), name
    generate = build.code_generator.specialized.__code__
    assert lines[generate.co_firstlineno - 1].startswith("    def generate(")


def test_cached_engine_mode_matches_artifact(tmp_path):
    """The engine file is written like the artifact, so every user of a
    shared cache dir can read both."""
    old = os.umask(0o022)
    try:
        _toy_attach(tmp_path)
    finally:
        os.umask(old)
    [engine] = tmp_path.glob("*" + SP.MODULE_SUFFIX)
    [artifact] = tmp_path.glob("*.coggart")
    assert engine.stat().st_mode == artifact.stat().st_mode


def test_corrupt_cached_module_deleted_and_rebuilt(tmp_path):
    _toy_attach(tmp_path)
    [path] = tmp_path.glob("*" + SP.MODULE_SUFFIX)
    pristine = path.read_text(encoding="utf-8")
    path.write_text(pristine.replace("return", "retvrn", 1),
                    encoding="utf-8")

    before = buildstats.snapshot()
    build = _toy_attach(tmp_path)
    after = buildstats.snapshot()
    assert build.code_generator.specialized is not None
    assert after["specialize_cache_corrupt"] == (
        before["specialize_cache_corrupt"] + 1
    )
    assert after["specialize_emits"] == before["specialize_emits"] + 1
    # The damaged file was replaced by a valid, loadable one.
    fingerprint = build.code_generator.specialize_info["fingerprint"]
    SP.load_module(path.read_text(encoding="utf-8"), fingerprint)


def test_truncated_cached_module_deleted_and_rebuilt(tmp_path):
    _toy_attach(tmp_path)
    [path] = tmp_path.glob("*" + SP.MODULE_SUFFIX)
    path.write_text(path.read_text(encoding="utf-8")[:100],
                    encoding="utf-8")
    before = buildstats.snapshot()
    build = _toy_attach(tmp_path)
    after = buildstats.snapshot()
    assert build.code_generator.specialized is not None
    assert after["specialize_cache_corrupt"] == (
        before["specialize_cache_corrupt"] + 1
    )


def test_version_bump_changes_fingerprint_and_misses(tmp_path, monkeypatch):
    _toy_attach(tmp_path)
    assert len(list(tmp_path.glob("*" + SP.MODULE_SUFFIX))) == 1
    monkeypatch.setattr(SP, "SPECIALIZER_VERSION", SP.SPECIALIZER_VERSION + 1)
    before = buildstats.snapshot()
    build = _toy_attach(tmp_path)
    after = buildstats.snapshot()
    # A new module was emitted under a new content address; the old one
    # is simply never found again.
    assert after["specialize_emits"] == before["specialize_emits"] + 1
    assert after["specialize_cache_hits"] == before["specialize_cache_hits"]
    assert len(list(tmp_path.glob("*" + SP.MODULE_SUFFIX))) == 2
    assert build.code_generator.specialized is not None


def test_builder_digest_edit_changes_fingerprint(monkeypatch):
    base = SP.specialize_fingerprint("some-build")
    monkeypatch.setitem(SP._DIGEST_CACHE, "digest", "0" * 64)
    assert SP.specialize_fingerprint("some-build") != base


def test_build_fingerprint_feeds_specialize_fingerprint():
    assert SP.specialize_fingerprint("a") != SP.specialize_fingerprint("b")


def test_env_switch_disables_specialization(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SPECIALIZE", "0")
    assert not SP.enabled()
    build = _toy_attach(tmp_path)
    assert build.code_generator.specialized is None
    assert list(tmp_path.glob("*" + SP.MODULE_SUFFIX)) == []


# ---- degradation -----------------------------------------------------------------


def test_engine_failure_degrades_with_identical_output(
    build, pristine_generator
):
    gen = pristine_generator
    reference = compile_source(WORKLOADS["straightline"], build=build)

    calls = []

    def broken_engine(tokens, frame=None, guards=None, stats=None):
        calls.append(1)
        raise SpecializeError("engine blew up mid-run", reason="exec")

    gen.specialized = broken_engine
    before = buildstats.get("specialize_degraded")
    degraded = compile_source(WORKLOADS["straightline"], build=build)
    assert calls, "the broken engine was never consulted"
    assert gen.specialized is None  # demoted for good
    assert gen.specialize_degraded_reason == "engine blew up mid-run"
    assert buildstats.get("specialize_degraded") == before + 1
    assert degraded.image() == reference.image()
    assert degraded.generated.stats.get("specialized") is False
    assert degraded.generated.stats.get("degraded_reason")


def test_attach_degrades_on_unemittable_build(tmp_path):
    """A build without a generator degrades instead of raising."""
    build = _toy_attach(tmp_path)
    gen = build.code_generator
    build.code_generator = None
    try:
        info = SP.attach(build, tmp_path, "refingerprint")
        assert info["attached"] is False
    finally:
        build.code_generator = gen


# ---- warm start across processes -------------------------------------------------


_SNAPSHOT_SNIPPET = """
import json
from repro.core import buildstats
from repro.pascal.compiler import compile_source

compiled = compile_source(
    "program t; var a: integer; begin a := 2 + 3 * 4; writeln(a) end."
)
assert compiled.run().output == "14\\n"
stats = dict(buildstats.snapshot())
stats["specialized_used"] = compiled.generated.stats.get("specialized")
print(json.dumps(stats))
"""


def _compile_in_subprocess(cache_dir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env.pop("REPRO_BUILD_CACHE", None)
    env.pop("REPRO_SPECIALIZE", None)
    proc = subprocess.run(
        [sys.executable, "-c", _SNAPSHOT_SNIPPET],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_warm_process_skips_module_emission(tmp_path):
    """The acceptance check: a warm second compile in a *fresh process*
    emits zero specialized modules -- the cached module is imported --
    and still runs through the specialized lane."""
    cold = _compile_in_subprocess(tmp_path)
    assert cold["specialize_emits"] == 1
    assert cold["specialized_used"] is True

    warm = _compile_in_subprocess(tmp_path)
    assert warm["specialize_emits"] == 0
    assert warm["specialize_cache_hits"] == 1
    assert warm["specialize_cache_corrupt"] == 0
    assert warm["specialized_used"] is True
