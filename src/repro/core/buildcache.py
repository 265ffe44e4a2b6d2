"""Persistent build cache: CoGG table artifacts keyed by content hash.

Table construction is the expensive half of a CoGG build (automaton
~30ms, SLR resolution ~7ms, compression ~15ms for the full S/370 spec;
spec parsing is ~25ms).  The paper's point is that the *tables* are the
product -- so we persist them.  An **artifact** bundles everything a
:class:`~repro.core.cogg.BuildResult` needs except the SDTS itself
(which is rebuilt from spec text, cheaply, on every start):

* the dense :class:`~repro.core.tables.ParseTables` (symbol codes ride
  along in the symbol ordering),
* the compressed base/next/check tables,
* the resolved-conflict records,
* a metadata section (repro version, grammar fingerprint, table mode
  statistics).

Artifacts are keyed by a **fingerprint**: the SHA-256 of the spec text,
a canonical rendering of the machine description, the package version,
and the source digests of every module that participates in table
construction.  Change any of those and the key changes, so stale
artifacts are simply never found (and a same-key artifact whose embedded
fingerprint disagrees is rejected).

The on-disk format follows the hardened-loader rules of the PR 1
robustness work (magic, explicit lengths, no trailing bytes) plus a
whole-file SHA-256 checksum: a truncated or bit-flipped artifact raises
:class:`~repro.errors.BuildCacheError`, and the cache reacts by deleting
the file and rebuilding from the spec -- corruption can cost time, never
correctness.

Layout::

    "CoGGart1"                     magic (8 bytes)
    >I   format version            (currently 1)
    >I   fingerprint length, then the fingerprint (hex, ascii)
    4 x (>I length + payload):     dense tables, compressed tables,
                                   conflicts JSON, metadata JSON
    32-byte SHA-256                over every preceding byte
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import repro
from repro.errors import BuildCacheError, ReproError
from repro.core import buildstats
from repro.core.grammar import SDTS, build_sdts
from repro.core.lr.compress import CompressedTables
from repro.core.lr.slr import ConflictRecord
from repro.core.machine import MachineDescription
from repro.core.tables import ParseTables

_MAGIC = b"CoGGart1"
_FORMAT_VERSION = 1
_CHECKSUM_BYTES = 32

#: Environment switch: set REPRO_BUILD_CACHE=0 to disable persistence.
_ENV_SWITCH = "REPRO_BUILD_CACHE"
#: Environment override for the cache directory.
_ENV_DIR = "REPRO_CACHE_DIR"


def cache_enabled() -> bool:
    return os.environ.get(_ENV_SWITCH, "1").lower() not in ("0", "off", "no")


def default_cache_dir() -> Path:
    """REPRO_CACHE_DIR, else the XDG-ish per-user cache directory."""
    override = os.environ.get(_ENV_DIR)
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-cogg"


# ---- fingerprinting ---------------------------------------------------------

def machine_canonical_text(machine: MachineDescription) -> str:
    """A stable, content-complete rendering of a machine description.

    Covers everything that influences generated code: register classes
    (members, allocatable sets, pair structure), runtime constants, the
    opcode conventions, and the names of any extra semantic operators.
    Handler *code* is covered indirectly by the package-version and
    module-digest components of the fingerprint.
    """
    classes = {
        nt: {
            "name": cls.name,
            "kind": cls.kind.value,
            "members": list(cls.members),
            "allocatable": list(cls.allocatable),
            "pair_of": cls.pair_of,
        }
        for nt, cls in sorted(machine.classes.items())
    }
    doc = {
        "name": machine.name,
        "classes": classes,
        "constants": dict(sorted(machine.constants.items())),
        "move_op": dict(sorted(machine.move_op.items())),
        "load_op": dict(sorted(machine.load_op.items())),
        "store_op": dict(sorted(machine.store_op.items())),
        "branch_op": machine.branch_op,
        "branch_load_op": machine.branch_load_op,
        "call_op": machine.call_op,
        "page_size": machine.page_size,
        "semop_handlers": sorted(machine.semop_handlers),
        "semop_opcodes": dict(sorted(machine.semop_opcodes.items())),
    }
    return json.dumps(doc, sort_keys=True)


def _table_module_digest() -> str:
    """SHA-256 over the sources of every table-construction module.

    An algorithm change in table building must invalidate cached tables
    even when the package version was not bumped (development trees).
    """
    from repro.core import grammar, tables
    from repro.core.lr import automaton, compress, slr

    h = hashlib.sha256()
    for module in (grammar, tables, automaton, slr, compress):
        path = getattr(module, "__file__", None)
        if path and os.path.exists(path):
            h.update(Path(path).read_bytes())
    return h.hexdigest()


def build_fingerprint(
    spec_text: str, machine: MachineDescription
) -> str:
    """The cache key: spec text + machine + version + builder sources."""
    h = hashlib.sha256()
    for part in (
        _MAGIC.decode("ascii"),
        str(_FORMAT_VERSION),
        getattr(repro, "__version__", "0"),
        _table_module_digest(),
        machine_canonical_text(machine),
        spec_text,
    ):
        h.update(part.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def grammar_fingerprint(sdts: SDTS) -> str:
    """Hash of the grammar the tables were built from (stale detection)."""
    h = hashlib.sha256()
    for prod in sdts.productions:
        h.update(str(prod).encode("utf-8"))
        h.update(b"\x00")
    for symbol in sorted(sdts.parse_symbols):
        h.update(symbol.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


# ---- artifact serialization -------------------------------------------------

def _conflicts_to_json(conflicts: List[ConflictRecord]) -> bytes:
    return json.dumps(
        [
            {
                "state": c.state,
                "symbol": c.symbol,
                "kind": c.kind,
                "chosen_action": c.chosen_action,
                "rejected_action": c.rejected_action,
            }
            for c in conflicts
        ]
    ).encode("utf-8")


def _conflicts_from_json(payload: bytes) -> List[ConflictRecord]:
    records = json.loads(payload.decode("utf-8"))
    return [
        ConflictRecord(
            state=r["state"],
            symbol=r["symbol"],
            kind=r["kind"],
            chosen_action=r["chosen_action"],
            rejected_action=r["rejected_action"],
        )
        for r in records
    ]


def pack_artifact(
    fingerprint: str,
    tables: ParseTables,
    compressed: CompressedTables,
    conflicts: List[ConflictRecord],
    meta: Dict[str, object],
) -> bytes:
    """Serialize one build artifact (see module docstring for layout)."""
    fp = fingerprint.encode("ascii")
    sections = [
        tables.to_bytes(),
        compressed.to_bytes(),
        _conflicts_to_json(conflicts),
        json.dumps(meta, sort_keys=True).encode("utf-8"),
    ]
    body = bytearray()
    body += _MAGIC
    body += struct.pack(">I", _FORMAT_VERSION)
    body += struct.pack(">I", len(fp))
    body += fp
    for section in sections:
        body += struct.pack(">I", len(section))
        body += section
    body += hashlib.sha256(bytes(body)).digest()
    return bytes(body)


def unpack_artifact(
    data: bytes, expected_fingerprint: Optional[str] = None
) -> Tuple[ParseTables, CompressedTables, List[ConflictRecord],
           Dict[str, object]]:
    """Parse and verify an artifact; raise :class:`BuildCacheError`.

    Verification order matters for diagnostics: magic, then the
    whole-file checksum (catching truncation and bit flips in one test),
    then structure, then the fingerprint.
    """
    if len(data) < len(_MAGIC) + 8 + _CHECKSUM_BYTES:
        raise BuildCacheError(
            f"artifact too short ({len(data)} bytes)", reason="truncated"
        )
    if data[: len(_MAGIC)] != _MAGIC:
        raise BuildCacheError("bad artifact magic", reason="bad-magic")
    body, checksum = data[:-_CHECKSUM_BYTES], data[-_CHECKSUM_BYTES:]
    if hashlib.sha256(body).digest() != checksum:
        raise BuildCacheError(
            "artifact checksum mismatch", reason="bad-checksum"
        )
    off = len(_MAGIC)
    try:
        (version,) = struct.unpack_from(">I", body, off)
        off += 4
        if version != _FORMAT_VERSION:
            raise BuildCacheError(
                f"artifact format v{version}, expected v{_FORMAT_VERSION}",
                reason="stale-fingerprint",
            )
        (fp_len,) = struct.unpack_from(">I", body, off)
        off += 4
        fingerprint = body[off : off + fp_len].decode("ascii")
        if len(fingerprint) != fp_len:
            raise BuildCacheError(
                "artifact fingerprint truncated", reason="truncated"
            )
        off += fp_len
        sections: List[bytes] = []
        for _ in range(4):
            (length,) = struct.unpack_from(">I", body, off)
            off += 4
            section = body[off : off + length]
            if len(section) != length:
                raise BuildCacheError(
                    "artifact section truncated", reason="truncated"
                )
            off += length
            sections.append(bytes(section))
    except (struct.error, UnicodeDecodeError) as error:
        raise BuildCacheError(
            f"truncated or corrupt artifact: {error}", reason="truncated"
        ) from error
    if off != len(body):
        raise BuildCacheError(
            f"artifact has {len(body) - off} trailing bytes",
            reason="bad-section",
        )
    if expected_fingerprint is not None and fingerprint != expected_fingerprint:
        raise BuildCacheError(
            "artifact fingerprint does not match this spec/machine/version",
            reason="stale-fingerprint",
        )
    try:
        tables = ParseTables.from_bytes(sections[0])
        compressed = CompressedTables.from_bytes(sections[1])
        conflicts = _conflicts_from_json(sections[2])
        meta = json.loads(sections[3].decode("utf-8"))
    except (ReproError, ValueError, KeyError, TypeError,
            UnicodeDecodeError) as error:
        raise BuildCacheError(
            f"artifact section failed to load: {error}", reason="bad-section"
        ) from error
    if not isinstance(meta, dict):
        raise BuildCacheError(
            "artifact metadata is not an object", reason="bad-section"
        )
    return tables, compressed, conflicts, meta


# ---- the cache itself -------------------------------------------------------

def artifact_path(cache_dir: Path, fingerprint: str) -> Path:
    return cache_dir / f"{fingerprint[:40]}.coggart"


def _write_atomic(path: Path, data: bytes) -> None:
    """No torn files: write a sibling temp file, then rename over.

    The one atomic writer for the cache directory (artifacts and
    specialized modules alike), so both get the same umask-derived
    mode.  Raises :class:`OSError`; the temp file never outlives it.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + f".tmp{os.getpid()}")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except OSError:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise


def cached_build(
    spec_text: str,
    machine: Optional[MachineDescription] = None,
    extra_semops=None,
    table_mode: str = "dense",
    cache_dir: Optional[Path] = None,
):
    """:func:`~repro.core.cogg.build_code_generator` with persistence.

    The SDTS is always rebuilt from the spec text (cheap, and the
    emission runtime needs its templates and handlers); the expensive
    table construction is skipped entirely when a valid artifact exists,
    and a miss builds the tables from that same SDTS, so every build
    parses the spec exactly once.
    A warm start therefore performs **zero** automaton constructions --
    asserted in tests via :mod:`repro.core.buildstats` counters.

    Any unusable artifact (truncated, bit-flipped, produced by another
    version) is deleted and replaced by a fresh build: the cache can
    cost time, never correctness.
    """
    from repro.core import specialize
    from repro.core.cogg import (
        BuildResult,
        TABLE_MODES,
        build_code_generator,
        build_from_sdts,
    )
    from repro.core.codegen.parser_rt import CodeGenerator
    from repro.core.machine import simple_machine
    from repro.core.speclang.parser import parse_spec
    from repro.core.speclang.semops import merged_semops
    from repro.core.speclang.typecheck import check_spec
    from repro.errors import TableError

    if table_mode not in TABLE_MODES:
        raise TableError(
            f"unknown table_mode {table_mode!r}; use one of {TABLE_MODES}"
        )
    if machine is None:
        machine = simple_machine("testmachine")
    if not cache_enabled():
        return build_code_generator(
            spec_text, machine, extra_semops=extra_semops,
            table_mode=table_mode,
        )
    cache_dir = cache_dir if cache_dir is not None else default_cache_dir()
    fingerprint = build_fingerprint(spec_text, machine)
    path = artifact_path(cache_dir, fingerprint)

    # The SDTS is needed either way (templates drive emission).
    semops = merged_semops(extra_semops or [])
    spec = parse_spec(spec_text)
    symtab = check_spec(spec, semops)
    sdts = build_sdts(spec, symtab)
    grammar_fp = grammar_fingerprint(sdts)

    if path.exists():
        try:
            tables, compressed, conflicts, meta = unpack_artifact(
                path.read_bytes(), expected_fingerprint=fingerprint
            )
            if meta.get("grammar_fingerprint") != grammar_fp:
                raise BuildCacheError(
                    "artifact grammar fingerprint does not match the "
                    "grammar built from this spec",
                    reason="stale-fingerprint",
                )
        except BuildCacheError:
            buildstats.bump("cache_corrupt")
            try:
                path.unlink()
            except OSError:  # pragma: no cover - racing cleanup
                pass
        else:
            buildstats.bump("cache_hits")
            runtime_tables = (
                compressed if table_mode == "compressed" else tables
            )
            generator = CodeGenerator(sdts, runtime_tables, machine)
            build = BuildResult(
                sdts=sdts,
                tables=tables,
                compressed=compressed,
                conflicts=conflicts,
                code_generator=generator,
                machine=machine,
                automaton=None,
                table_mode=table_mode,
            )
            # Warm start: the specialized module loads from its cache
            # file next to the artifact -- zero regeneration, proven by
            # the specialize_emits counter staying flat.
            specialize.attach(build, cache_dir, fingerprint)
            return build

    buildstats.bump("cache_misses")
    build = build_from_sdts(sdts, machine, table_mode)
    meta = {
        "repro_version": getattr(repro, "__version__", "0"),
        "grammar_fingerprint": grammar_fp,
        "nstates": build.tables.nstates,
        "nsymbols": build.tables.nsymbols,
        "nproductions": len(build.sdts.productions),
    }
    try:
        _write_atomic(
            path,
            pack_artifact(
                fingerprint, build.tables, build.compressed,
                build.conflicts, meta,
            ),
        )
        buildstats.bump("cache_writes")
    except OSError:  # pragma: no cover - unwritable cache dir is non-fatal
        pass
    # Cold start: emit + compile the specialized module once, cached
    # next to the artifact for every later process to import.
    specialize.attach(build, cache_dir, fingerprint)
    return build
