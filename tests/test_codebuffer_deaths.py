"""Edge cases for ``CodeBuffer`` death facts and provenance tags.

``deaths`` is the register allocator's ``on_free`` ground truth: a pair
``(d, r)`` promises no item at index >= ``d`` reads ``r`` until ``r``
is next redefined.  These tests pin the parts of that contract the
optimizer passes lean on: where ``note_death`` anchors the fact, how
``compact()`` remaps it past tombstones, that a redefinition bounds the
dead span, that items protected by a ``SkipSite`` span are never
rewritten even when the death facts would justify it, that the
global forwarder scrubs death facts it invalidates, and that the
peephole's per-register death index answers and writes back exactly
what scanning the list would.
"""

import random

from repro.core.codegen.cse import CseManager
from repro.core.codegen.emitter import (
    BranchSite,
    CodeBuffer,
    Imm,
    Instr,
    LabelMark,
    Mem,
    R,
    SkipSite,
)
from repro.core.codegen.labels import LabelDictionary
from repro.core.codegen.parser_rt import GeneratedCode
from repro.machines.s370.spec import machine_description
from repro.opt import peephole, run_peephole
from repro.opt.globalopt import run_global
from repro.opt.peephole import _DeathIndex

MEM = Mem(100, 0, 13)


def make_code(items, deaths=()):
    buffer = CodeBuffer()
    buffer.items = list(items)
    buffer.deaths = list(deaths)
    labels = LabelDictionary()
    for item in buffer.items:
        if isinstance(item, LabelMark):
            labels.define(item.label)
        elif isinstance(item, BranchSite):
            labels.reference(item.label)
    return GeneratedCode(buffer=buffer, labels=labels, cse=CseManager())


class TestNoteDeath:
    def test_death_anchors_before_next_item(self):
        buffer = CodeBuffer()
        buffer.op("lr", R(2), R(1))
        buffer.note_death(1)          # r1 dies after the copy
        buffer.op("ar", R(2), R(2))
        assert buffer.deaths == [(1, 1)]

    def test_death_on_empty_buffer(self):
        buffer = CodeBuffer()
        buffer.note_death(5)
        assert buffer.deaths == [(0, 5)]

    def test_note_origin_stamps_last_item(self):
        buffer = CodeBuffer()
        buffer.note_origin("too early")   # no items yet: dropped
        buffer.op("lr", R(2), R(1))
        buffer.note_origin("spec line 9: lr r.1,r.2")
        assert buffer.origins == {0: "spec line 9: lr r.1,r.2"}


class TestCompactRemap:
    def _buffer(self):
        buffer = CodeBuffer()
        buffer.items = [
            Instr("lr", (R(2), R(1))),   # 0
            Instr("ar", (R(2), R(2))),   # 1  (tombstoned below)
            Instr("st", (R(2), MEM)),    # 2
        ]
        buffer.origins = {0: "keep0", 1: "gone", 2: "keep2"}
        return buffer

    def test_death_before_tombstone_unchanged(self):
        buffer = self._buffer()
        buffer.deaths = [(1, 1)]
        buffer.items[1] = None
        buffer.compact()
        assert buffer.deaths == [(1, 1)]

    def test_death_at_tombstone_slides_to_next_kept(self):
        buffer = self._buffer()
        buffer.deaths = [(2, 1)]      # anchored at the deleted ar
        buffer.items[1] = None
        buffer.compact()
        # The promise "unread from the old index 2 on" now starts at the
        # store, which became index 1.
        assert buffer.deaths == [(1, 1)]

    def test_trailing_death_clamped_to_new_length(self):
        buffer = self._buffer()
        buffer.deaths = [(3, 2)]      # past every item: end-of-buffer
        buffer.items[1] = None
        buffer.compact()
        assert buffer.deaths == [(2, 2)]

    def test_origins_remapped_and_deleted_dropped(self):
        buffer = self._buffer()
        buffer.items[1] = None
        buffer.compact()
        assert buffer.origins == {0: "keep0", 1: "keep2"}

    def test_double_compact_is_stable(self):
        buffer = self._buffer()
        buffer.deaths = [(2, 1), (3, 2)]
        buffer.items[1] = None
        buffer.compact()
        first = (list(buffer.items), list(buffer.deaths),
                 dict(buffer.origins))
        buffer.compact()
        assert (buffer.items, buffer.deaths, buffer.origins) == \
            (first[0], first[1], first[2])


class TestRedefinitionBoundsDeath:
    def test_rename_span_stops_at_death_despite_later_reuse(self):
        # r2 dies at index 3, is redefined at 3 and read at 4.  The
        # cross-register forwarder renames only the dead span [load,
        # death); the redefined r2 must keep its name.
        code = make_code(
            [
                Instr("st", (R(1), MEM)),     # 0
                Instr("l", (R(2), MEM)),      # 1  -> forwarded away
                Instr("ar", (R(3), R(2))),    # 2  renamed to read r1
                Instr("lr", (R(2), R(5))),    # 3  redefinition
                Instr("ar", (R(6), R(2))),    # 4  reads the NEW r2
            ],
            deaths=[(1, 1), (3, 2)],
        )
        result = run_peephole(code, rules=["store_load"])
        assert result.hits["store_load"] == 1
        items = code.buffer.items
        assert items[1].operands == (R(3), R(1))   # old span renamed
        assert items[2].operands == (R(2), R(5))   # redefinition intact
        assert items[3].operands == (R(6), R(2))   # new value still r2


class TestSkipSpanProtection:
    def test_protected_load_not_deleted(self):
        # Without the skip this is the classic store/load deletion; the
        # load sits inside the skip's 2-halfword byte span, where items
        # may never be deleted or resized.
        code = make_code([
            SkipSite(cond=8, halfwords=2, index_reg=0),
            Instr("l", (R(1), MEM)),
            Instr("svc", (Imm(1),)),
        ])
        before = list(code.buffer.items)
        result = run_peephole(code, rules=["load_load", "store_load"])
        assert result.total == 0
        assert code.buffer.items == before

    def test_death_inside_span_survives_compact(self):
        # A death anchored inside a protected span keeps its anchor:
        # protected items are never tombstoned, so compact() must not
        # move it even when earlier items are deleted.
        code = make_code(
            [
                Instr("l", (R(4), MEM)),          # 0
                Instr("l", (R(4), MEM)),          # 1 duplicate: deleted
                SkipSite(cond=8, halfwords=2, index_reg=0),  # 2
                Instr("ar", (R(2), R(4))),        # 3 in span
                Instr("svc", (Imm(0),)),          # 4
            ],
            deaths=[(4, 4)],
        )
        result = run_peephole(code, rules=["load_load"])
        assert result.hits["load_load"] == 1
        # The span item kept its place relative to the skip, and the
        # death anchor followed the shift exactly.
        assert isinstance(code.buffer.items[2], Instr)
        assert code.buffer.items[2].opcode == "ar"
        assert code.buffer.deaths == [(3, 4)]


class TestGlobalForwarderScrub:
    def test_stale_source_death_scrubbed(self):
        # Before -O2: r3 is stored and never read again, so (1, 3) is a
        # sound death fact.  Global forwarding rewrites the reload into
        # `lr r5,r3` -- r3 IS now read there, and the stale fact must go.
        enc = machine_description().encoder
        code = make_code(
            [
                Instr("st", (R(3), MEM)),      # 0
                Instr("l", (R(5), MEM)),       # 1 -> becomes lr r5,r3
                Instr("lr", (R(1), R(5))),     # 2
                Instr("svc", (Imm(1),)),       # 3
                Instr("svc", (Imm(0),)),       # 4
            ],
            deaths=[(1, 3)],
        )
        result = run_global(code, enc)
        assert result.hits["g_forward_copy"] == 1
        moves = [
            i for i in code.buffer.items
            if isinstance(i, Instr) and i.operands == (R(5), R(3))
        ]
        assert moves, "expected the forwarded copy lr r5,r3"
        assert all(r != 3 for _, r in code.buffer.deaths)


class ListScanDeaths:
    """Reference model: the death bookkeeping as plain list scans."""

    def __init__(self, deaths):
        self.deaths = list(deaths)

    def first_after(self, reg, idx):
        found = [d for d, r in self.deaths if r == reg and d > idx]
        return min(found) if found else None

    def any_in(self, reg, lo, hi):
        return any(r == reg and lo < d <= hi for d, r in self.deaths)

    def remove(self, reg, lo, hi):
        self.deaths = [
            (d, r) for d, r in self.deaths if not (r == reg and lo < d <= hi)
        ]

    def move(self, idx, old, new):
        for pos, (d, r) in enumerate(self.deaths):
            if (d, r) == (idx, old):
                self.deaths[pos] = (d, new)
                return

    def to_list(self):
        return list(self.deaths)


class TestDeathIndex:
    def test_duplicate_entries_kept_and_removed_together(self):
        index = _DeathIndex([(3, 1), (3, 1), (5, 2)])
        assert index.first_after(1, 0) == 3
        assert index.to_list() == [(3, 1), (3, 1), (5, 2)]
        index.remove(1, 2, 3)
        assert index.first_after(1, 0) is None
        assert index.to_list() == [(5, 2)]

    def test_removal_range_is_lo_exclusive_hi_inclusive(self):
        deaths = [(2, 1), (3, 1), (4, 1), (5, 1)]
        index = _DeathIndex(deaths)
        assert not index.any_in(1, 5, 9)
        assert index.any_in(1, 4, 5)
        index.remove(1, 2, 4)
        assert index.to_list() == [(2, 1), (5, 1)]

    def test_move_renames_earliest_list_entry_in_place(self):
        # Two (4, 1) entries: only the first listed moves, and it keeps
        # its position in the list.
        index = _DeathIndex([(6, 3), (4, 1), (2, 1), (4, 1)])
        index.move(4, 1, 7)
        assert index.to_list() == [(6, 3), (4, 7), (2, 1), (4, 1)]
        assert index.first_after(7, 0) == 4
        assert index.first_after(1, 2) == 4
        index.move(9, 1, 7)   # no such entry: nothing happens
        assert index.to_list() == [(6, 3), (4, 7), (2, 1), (4, 1)]

    def test_matches_list_scan_model_on_random_edits(self):
        rng = random.Random(7)
        for _ in range(200):
            deaths = [
                (rng.randrange(12), rng.randrange(1, 5))
                for _ in range(rng.randrange(12))
            ]
            index, model = _DeathIndex(deaths), ListScanDeaths(deaths)
            for _ in range(15):
                reg, lo, hi = rng.randrange(1, 5), rng.randrange(-1, 12), \
                    rng.randrange(12)
                assert index.first_after(reg, lo) == model.first_after(reg, lo)
                assert index.any_in(reg, lo, hi) == model.any_in(reg, lo, hi)
                if rng.random() < 0.5:
                    index.remove(reg, lo, hi)
                    model.remove(reg, lo, hi)
                else:
                    new = rng.randrange(1, 5)
                    index.move(hi, reg, new)
                    model.move(hi, reg, new)
                assert index.to_list() == model.to_list()

    def test_written_back_deaths_match_model_after_compact(self, monkeypatch):
        # A whole -O1 run with the list-scan model in the index's place:
        # the compacted deaths and the code are the same.
        from repro.bench.workloads import chain_loop, straightline
        from repro.pascal.compiler import compile_source

        for source in (straightline(120), chain_loop(20)):
            indexed = compile_source(source, opt_level=1)
            with monkeypatch.context() as patch:
                patch.setattr(peephole, "_DeathIndex", ListScanDeaths)
                scanned = compile_source(source, opt_level=1)
            assert indexed.stats["peephole"]["hits"]["store_load"] > 0
            assert indexed.generated.buffer.deaths == \
                scanned.generated.buffer.deaths
            assert indexed.object_records == scanned.object_records
