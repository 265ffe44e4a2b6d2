"""Edge cases for ``CodeBuffer`` death facts and provenance tags.

``deaths`` is the register allocator's ``on_free`` ground truth: a pair
``(d, r)`` promises no item at index >= ``d`` reads ``r`` until ``r``
is next redefined.  These tests pin the parts of that contract the
optimizer passes lean on: where ``note_death`` anchors the fact, how
``compact()`` remaps it past tombstones, that a redefinition bounds the
dead span, that items protected by a ``SkipSite`` span are never
rewritten even when the death facts would justify it, that the
global forwarder scrubs death facts it invalidates, and that the
deaths the -O1 peephole writes back still hold.
"""

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
    StmtMark,
)
from repro.core.codegen.labels import LabelDictionary
from repro.core.codegen.parser_rt import GeneratedCode
from repro.machines.s370.spec import machine_description
from repro.opt import run_peephole
from repro.opt.globalopt import run_global

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


class TestWrittenBackDeaths:
    def test_every_death_holds_on_its_straight_line_path(self):
        # A whole -O1 run: after forwarding consumed, moved and kept
        # deaths and compact() remapped them, each (d, r) still promises
        # no read of r from item d on, up to r's next definition.
        from repro.bench.workloads import chain_loop, straightline
        from repro.pascal.compiler import compile_source

        enc = machine_description().encoder
        for source in (straightline(120), chain_loop(20)):
            compiled = compile_source(source, opt_level=1)
            assert compiled.stats["peephole"]["hits"]["store_load"] > 0
            buffer = compiled.generated.buffer
            for d, reg in buffer.deaths:
                for k in range(d, len(buffer.items)):
                    item = buffer.items[k]
                    if isinstance(item, StmtMark):
                        continue
                    if not isinstance(item, Instr):
                        break  # the straight-line path ends here
                    effects = enc.effects(item)
                    if effects.barrier or effects.flow:
                        break
                    assert reg not in effects.uses, (d, reg, k, item)
                    if reg in effects.defs:
                        break
