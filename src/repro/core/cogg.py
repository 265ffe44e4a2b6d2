"""CoGG: the code generator generator's public driver.

"CoGG accepts a specification for a code generator, and produces a code
generator consisting of (1) a skeletal parser, (2) tables for driving the
parser, and (3) special utility routines for register allocation and
symbol table management." (paper section 2)

Typical use::

    from repro.core.cogg import build_code_generator
    from repro.machines.s370 import machine_description, spec_text

    build = build_code_generator(spec_text(), machine_description())
    code = build.code_generator.generate(if_tokens, frame)
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import TableError

from repro.core.grammar import SDTS, build_sdts
from repro.core.lr.automaton import LRAutomaton, build_automaton
from repro.core.lr.compress import CompressedTables, compress_tables
from repro.core.lr.slr import ConflictRecord, build_parse_tables
from repro.core.machine import MachineDescription, simple_machine
from repro.core.speclang.parser import parse_spec
from repro.core.speclang.semops import SemopInfo, merged_semops
from repro.core.speclang.typecheck import check_spec
from repro.core.codegen.parser_rt import CodeGenerator
from repro.core.tables import ParseTables, template_array_size_bytes


class BuildResult:
    """Everything CoGG produces for one specification.

    ``automaton`` is lazy: a build restored from the persistent cache
    (:mod:`repro.core.buildcache`) carries tables but no LR automaton,
    and constructs one on first access only.  Warm-start compiles never
    touch it, which is what makes the "zero automaton constructions on a
    cache hit" contract (asserted via :mod:`repro.core.buildstats`)
    possible.
    """

    def __init__(
        self,
        sdts: SDTS,
        tables: ParseTables,
        compressed: CompressedTables,
        conflicts: List[ConflictRecord],
        code_generator: CodeGenerator,
        machine: MachineDescription,
        automaton: Optional[LRAutomaton] = None,
        table_mode: str = "dense",
    ):
        self.sdts = sdts
        self.tables = tables
        self.compressed = compressed
        self.conflicts = conflicts
        self.code_generator = code_generator
        self.machine = machine
        self.table_mode = table_mode
        self._automaton = automaton

    @property
    def automaton(self) -> LRAutomaton:
        """The LR(0) automaton, constructed on demand for cached builds."""
        if self._automaton is None:
            self._automaton = build_automaton(self.sdts)
        return self._automaton

    def copy_with(self, **overrides) -> "BuildResult":
        """A shallow copy with named fields replaced.

        The ``dataclasses.replace`` equivalent (BuildResult stopped being
        a dataclass when ``automaton`` became lazy); used by the
        fault-injection harness to swap in deliberately crippled tables.
        """
        kwargs = dict(
            sdts=self.sdts,
            tables=self.tables,
            compressed=self.compressed,
            conflicts=self.conflicts,
            code_generator=self.code_generator,
            machine=self.machine,
            automaton=self._automaton,
            table_mode=self.table_mode,
        )
        kwargs.update(overrides)
        return BuildResult(**kwargs)

    def statistics(self) -> Dict[str, int]:
        """The paper's Table 1 counters for this spec."""
        stats = dict(self.sdts.statistics())
        stats.update(self.tables.statistics())
        return stats

    def size_report(self) -> Dict[str, float]:
        """The paper's Table 2 size accounting, in bytes and pages."""
        template_bytes = template_array_size_bytes(self.sdts.user_productions)
        return {
            "template_array_bytes": template_bytes,
            "template_array_pages": template_bytes / 4096,
            "uncompressed_bytes": self.tables.size_bytes(),
            "uncompressed_pages": self.tables.size_pages(),
            "compressed_bytes": self.compressed.size_bytes(),
            "compressed_pages": self.compressed.size_pages(),
            "compression_ratio": (
                self.compressed.size_bytes() / self.tables.size_bytes()
            ),
        }

    def conflict_summary(self) -> Dict[str, int]:
        out: Dict[str, int] = {"shift/reduce": 0, "reduce/reduce": 0}
        for record in self.conflicts:
            out[record.kind] = out.get(record.kind, 0) + 1
        return out


#: Valid ``table_mode`` values for :func:`build_code_generator`.
TABLE_MODES = ("dense", "compressed")


def build_code_generator(
    spec_text: str,
    machine: Optional[MachineDescription] = None,
    extra_semops: Optional[List[SemopInfo]] = None,
    table_mode: str = "dense",
) -> BuildResult:
    """Run the whole CoGG pipeline on a specification.

    Parses and type checks the spec, constructs the SLR(1) tables with
    Glanville conflict resolution, compresses them, and wires up a
    :class:`~repro.core.codegen.parser_rt.CodeGenerator` bound to the
    machine description.  ``machine`` defaults to an 8-register test
    machine whose only class is the non-terminal ``r``.

    ``table_mode`` selects which table representation drives the
    runtime: ``"dense"`` (the default) indexes the full action matrix;
    ``"compressed"`` executes directly off the base/next/check arrays
    (paper Table 2's paged representation).  Both produce identical
    instruction streams; they differ only in memory/runtime trade-off.
    """
    if table_mode not in TABLE_MODES:
        raise TableError(
            f"unknown table_mode {table_mode!r}; use one of {TABLE_MODES}"
        )
    if machine is None:
        machine = simple_machine("testmachine")
    semops = merged_semops(extra_semops or [])
    spec = parse_spec(spec_text)
    symtab = check_spec(spec, semops)
    return build_from_sdts(build_sdts(spec, symtab), machine, table_mode)


def build_from_sdts(
    sdts: SDTS, machine: MachineDescription, table_mode: str
) -> BuildResult:
    """The table half of :func:`build_code_generator`: automaton, SLR
    tables, compression and the code generator for an already-built
    SDTS (the persistent cache's miss path builds the SDTS itself)."""
    automaton = build_automaton(sdts)
    tables, conflicts = build_parse_tables(sdts, automaton)
    compressed = compress_tables(tables)
    runtime_tables = compressed if table_mode == "compressed" else tables
    generator = CodeGenerator(sdts, runtime_tables, machine)
    return BuildResult(
        sdts=sdts,
        automaton=automaton,
        tables=tables,
        compressed=compressed,
        conflicts=conflicts,
        code_generator=generator,
        machine=machine,
        table_mode=table_mode,
    )
