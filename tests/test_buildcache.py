"""The persistent build cache: artifact format, integrity, invalidation.

Contract under test (see :mod:`repro.core.buildcache`):

* an artifact round-trips both table representations, the conflict
  records and the metadata byte-exactly;
* *any* truncation, bit flip or trailing garbage raises a typed
  :class:`~repro.errors.BuildCacheError` -- never a struct error or a
  silently wrong table;
* the cache key changes with the spec text and the package version, so
  stale artifacts are never found;
* a corrupt artifact is deleted and replaced by a fresh build whose
  tables are identical to the pristine ones;
* a warm start -- including a warm start in a *new process* -- performs
  zero automaton constructions, measured by the
  :mod:`repro.core.buildstats` counters rather than inferred from
  timing.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core import buildcache as BC
from repro.core import buildstats
from repro.core.cogg import build_code_generator
from repro.core.lr.compress import compressed_equal
from repro.errors import BuildCacheError, TableError
from repro.machines.toy.spec import machine_description, spec_text

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def toy():
    return spec_text(), machine_description()


@pytest.fixture(scope="module")
def built(toy):
    text, machine = toy
    return build_code_generator(text, machine)


@pytest.fixture(scope="module")
def artifact(toy, built):
    text, machine = toy
    fingerprint = BC.build_fingerprint(text, machine)
    meta = {
        "grammar_fingerprint": BC.grammar_fingerprint(built.sdts),
        "note": "round-trip fixture",
    }
    blob = BC.pack_artifact(
        fingerprint, built.tables, built.compressed, built.conflicts, meta
    )
    return fingerprint, meta, blob


# ---- artifact round trip ---------------------------------------------------------


class TestArtifactRoundTrip:
    def test_dense_tables_roundtrip(self, built, artifact):
        fingerprint, _, blob = artifact
        tables, _, _, _ = BC.unpack_artifact(
            blob, expected_fingerprint=fingerprint
        )
        assert tables.symbols == built.tables.symbols
        assert tables.matrix == built.tables.matrix
        assert tables.sym_index == built.tables.sym_index

    def test_compressed_tables_roundtrip(self, built, artifact):
        _, _, blob = artifact
        _, compressed, _, _ = BC.unpack_artifact(blob)
        assert compressed_equal(compressed, built.compressed)
        assert compressed.to_bytes() == built.compressed.to_bytes()

    def test_conflicts_and_meta_roundtrip(self, built, artifact):
        _, meta, blob = artifact
        _, _, conflicts, meta2 = BC.unpack_artifact(blob)
        assert meta2 == meta
        assert len(conflicts) == len(built.conflicts)
        for got, want in zip(conflicts, built.conflicts):
            assert (got.state, got.symbol, got.kind) == (
                want.state, want.symbol, want.kind
            )
            assert got.chosen_action == want.chosen_action
            assert got.rejected_action == want.rejected_action

    def test_fingerprint_mismatch_rejected(self, artifact):
        _, _, blob = artifact
        with pytest.raises(BuildCacheError) as info:
            BC.unpack_artifact(blob, expected_fingerprint="0" * 64)
        assert info.value.reason == "stale-fingerprint"


# ---- damage rejection ------------------------------------------------------------


class TestArtifactDamage:
    def test_every_truncation_rejected(self, artifact):
        _, _, blob = artifact
        step = max(1, len(blob) // 97)
        for cut in list(range(0, len(blob), step)) + [len(blob) - 1]:
            with pytest.raises(BuildCacheError):
                BC.unpack_artifact(blob[:cut])

    def test_bit_flips_rejected(self, artifact):
        _, _, blob = artifact
        step = max(1, len(blob) // 61)
        for pos in range(0, len(blob), step):
            for bit in (0, 7):
                damaged = bytearray(blob)
                damaged[pos] ^= 1 << bit
                with pytest.raises(BuildCacheError) as info:
                    BC.unpack_artifact(bytes(damaged))
                assert info.value.reason in (
                    "bad-magic", "bad-checksum", "truncated",
                    "bad-section", "stale-fingerprint",
                )

    def test_trailing_garbage_rejected(self, artifact):
        _, _, blob = artifact
        with pytest.raises(BuildCacheError):
            BC.unpack_artifact(blob + b"\x00")

    def test_empty_rejected(self):
        with pytest.raises(BuildCacheError) as info:
            BC.unpack_artifact(b"")
        assert info.value.reason == "truncated"


# ---- cache keying and invalidation -----------------------------------------------


class TestFingerprint:
    def test_spec_text_changes_key(self, toy):
        text, machine = toy
        assert BC.build_fingerprint(text, machine) != BC.build_fingerprint(
            text + "\n", machine
        )

    def test_version_changes_key(self, toy, monkeypatch):
        text, machine = toy
        before = BC.build_fingerprint(text, machine)
        monkeypatch.setattr(repro, "__version__", "999.0-test")
        assert BC.build_fingerprint(text, machine) != before

    def test_machine_changes_key(self, toy):
        from repro.core.machine import simple_machine

        text, machine = toy
        assert BC.build_fingerprint(text, machine) != BC.build_fingerprint(
            text, simple_machine("othermachine")
        )

    def test_stable_for_same_inputs(self, toy):
        text, machine = toy
        assert BC.build_fingerprint(text, machine) == BC.build_fingerprint(
            text, machine
        )


class TestCachedBuild:
    def test_cold_then_warm(self, toy, tmp_path):
        text, machine = toy
        before = buildstats.snapshot()
        cold = BC.cached_build(text, machine, cache_dir=tmp_path)
        mid = buildstats.snapshot()
        assert mid["cache_misses"] == before["cache_misses"] + 1
        assert mid["cache_writes"] == before["cache_writes"] + 1
        assert mid["automaton_builds"] == before["automaton_builds"] + 1

        warm = BC.cached_build(text, machine, cache_dir=tmp_path)
        after = buildstats.snapshot()
        assert after["cache_hits"] == mid["cache_hits"] + 1
        # The whole point: zero table construction on a warm start.
        assert after["automaton_builds"] == mid["automaton_builds"]
        assert after["table_builds"] == mid["table_builds"]
        assert after["compress_runs"] == mid["compress_runs"]
        assert warm.tables.matrix == cold.tables.matrix
        assert compressed_equal(warm.compressed, cold.compressed)

    def test_spec_change_is_a_miss(self, toy, tmp_path):
        text, machine = toy
        BC.cached_build(text, machine, cache_dir=tmp_path)
        before = buildstats.snapshot()
        BC.cached_build(text + "\n", machine, cache_dir=tmp_path)
        after = buildstats.snapshot()
        assert after["cache_misses"] == before["cache_misses"] + 1
        assert after["cache_hits"] == before["cache_hits"]
        assert len(list(tmp_path.glob("*.coggart"))) == 2

    def test_corrupt_artifact_degrades_to_fresh_build(self, toy, tmp_path):
        text, machine = toy
        pristine = BC.cached_build(text, machine, cache_dir=tmp_path)
        path = BC.artifact_path(
            tmp_path, BC.build_fingerprint(text, machine)
        )
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))

        before = buildstats.snapshot()
        rebuilt = BC.cached_build(text, machine, cache_dir=tmp_path)
        after = buildstats.snapshot()
        assert after["cache_corrupt"] == before["cache_corrupt"] + 1
        assert after["cache_misses"] == before["cache_misses"] + 1
        assert rebuilt.tables.matrix == pristine.tables.matrix
        # The damaged file was replaced by a valid one.
        BC.unpack_artifact(path.read_bytes())

    def test_lazy_automaton_on_cache_hit(self, toy, tmp_path):
        text, machine = toy
        BC.cached_build(text, machine, cache_dir=tmp_path)
        warm = BC.cached_build(text, machine, cache_dir=tmp_path)
        before = buildstats.get("automaton_builds")
        automaton = warm.automaton  # first access constructs it...
        assert buildstats.get("automaton_builds") == before + 1
        assert warm.automaton is automaton  # ...and it is memoized
        assert buildstats.get("automaton_builds") == before + 1

    def test_env_switch_disables_persistence(self, toy, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BUILD_CACHE", "0")
        assert not BC.cache_enabled()
        text, machine = toy
        build = BC.cached_build(text, machine, cache_dir=tmp_path)
        assert build.tables.nstates > 0
        assert list(tmp_path.iterdir()) == []

    def test_cache_dir_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "override"))
        assert BC.default_cache_dir() == tmp_path / "override"

    def test_bad_table_mode_rejected(self, toy, tmp_path):
        text, machine = toy
        with pytest.raises(TableError):
            BC.cached_build(text, machine, table_mode="sparse",
                            cache_dir=tmp_path)

    def test_spec_parsed_once_per_build(self, toy, tmp_path, monkeypatch):
        """A cold build and a warm build each parse the spec exactly
        once, counted through both bindings of ``parse_spec``."""
        import repro.core.cogg as cogg
        import repro.core.speclang.parser as parser

        real = parser.parse_spec
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(parser, "parse_spec", counting)
        monkeypatch.setattr(cogg, "parse_spec", counting)
        text, machine = toy
        before = buildstats.snapshot()
        BC.cached_build(text, machine, cache_dir=tmp_path)
        assert buildstats.get("cache_misses") == before["cache_misses"] + 1
        assert len(calls) == 1
        BC.cached_build(text, machine, cache_dir=tmp_path)
        assert buildstats.get("cache_hits") == before["cache_hits"] + 1
        assert len(calls) == 2


# ---- warm start across processes -------------------------------------------------


_SNAPSHOT_SNIPPET = """
import json
from repro.core import buildstats
from repro.pascal.compiler import compile_source

compiled = compile_source(
    "program t; var a: integer; begin a := 2 + 3 * 4; writeln(a) end."
)
assert compiled.run().output == "14\\n"
print(json.dumps(buildstats.snapshot()))
"""


def _compile_in_subprocess(cache_dir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env.pop("REPRO_BUILD_CACHE", None)
    proc = subprocess.run(
        [sys.executable, "-c", _SNAPSHOT_SNIPPET],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_warm_process_skips_table_construction(tmp_path):
    """The acceptance check: a warm second compile in a *fresh process*
    performs zero automaton/table/compression constructions."""
    cold = _compile_in_subprocess(tmp_path)
    assert cold["automaton_builds"] >= 1
    assert cold["cache_writes"] >= 1

    warm = _compile_in_subprocess(tmp_path)
    assert warm["automaton_builds"] == 0
    assert warm["table_builds"] == 0
    assert warm["compress_runs"] == 0
    assert warm["cache_hits"] == 1
    assert warm["cache_corrupt"] == 0


# ---- artifacts independent of the hash seed ----------------------------------


_ARTIFACTS_SNIPPET = """
import sys
from pathlib import Path
from repro.core import buildcache as BC
from repro.machines.s370 import spec as s370
from repro.machines.toy import spec as toy

cache_dir = Path(sys.argv[1])
for variant in s370.VARIANTS:
    BC.cached_build(s370.spec_text(variant), s370.machine_description(),
                    extra_semops=s370.extra_semops(), cache_dir=cache_dir)
BC.cached_build(toy.spec_text(), toy.machine_description(),
                cache_dir=cache_dir)
"""


def test_artifacts_identical_under_different_hash_seeds(tmp_path):
    """Tables, compressed tables and the conflict list are built in an
    order that no ``PYTHONHASHSEED`` changes, so two processes write
    byte-identical artifacts for every shipped spec."""
    written = []
    for seed in ("1", "2"):
        cache_dir = tmp_path / f"seed{seed}"
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"),
                   PYTHONHASHSEED=seed)
        env.pop("REPRO_BUILD_CACHE", None)
        proc = subprocess.run(
            [sys.executable, "-c", _ARTIFACTS_SNIPPET, str(cache_dir)],
            capture_output=True, text=True, timeout=300, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        written.append({
            path.name: path.read_bytes()
            for path in sorted(cache_dir.glob("*.coggart"))
        })
    assert len(written[0]) == 4
    assert written[0] == written[1]
