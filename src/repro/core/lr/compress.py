"""Parse-table compression (paper Table 2: "Compressed Parse Table").

Three classic techniques, composed:

1. **Default reductions**: each row's most frequent *reduce* action
   becomes the row default.  Error entries collapse into the default
   too; this can delay error detection by a few reductions but never
   lets a wrong instruction sequence through, because reductions
   consume no input and every shift is still checked (the same argument
   as yacc's).
2. **Row sharing**: states whose significant entries are identical
   after default extraction share one displacement.
3. **Row displacement ("comb") packing with column check**: remaining
   entries overlay into one ``next``/``check`` array pair; ``check``
   holds the *column*.  Every row group gets a displacement of its own,
   so a check hit at ``base + col`` can only be the group's own entry
   and an absent column always falls back to the default.  Each group
   takes the first such displacement whose slots are free, found with
   Python-int bitmasks rather than by trying every candidate in turn.

The paper notes its compressed tables were "by no means minimally
compressed"; ours aren't either -- the reproduced claim is the
direction and rough magnitude of the win, reported by
``benchmarks/bench_table2``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.errors import TableError
from repro.core import buildstats
from repro.core import tables as T
from repro.core.tables import ENTRY_BYTES, PAGE_BYTES, ParseTables

_MAGIC = b"CoGGcmp1"


@dataclass
class CompressedTables:
    """Default + base/next/check representation of an action matrix.

    ``check`` holds the owning *column* of each packed slot (yacc
    style), enabling row overlap; ``lookup`` falls back to the row
    default on a check miss.
    """

    symbols: List[str]
    default: List[int]          # per-state default action
    base: List[int]             # per-state displacement into next/check
    next: List[int]
    check: List[int]            # owning column per slot; -1 = empty
    sym_index: Dict[str, int] = field(init=False, repr=False)
    _expected_cache: Dict[int, List[str]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.sym_index = {s: i for i, s in enumerate(self.symbols)}
        self._expected_cache = {}

    @property
    def nstates(self) -> int:
        return len(self.default)

    @property
    def nsymbols(self) -> int:
        return len(self.symbols)

    def lookup(self, state: int, symbol: str) -> int:
        col = self.sym_index.get(symbol)
        if col is None:
            return self.default[state]
        slot = self.base[state] + col
        if 0 <= slot < len(self.next) and self.check[slot] == col:
            return self.next[slot]
        return self.default[state]

    def row_views(self) -> List["_RowView"]:
        """One read-only ``[col]`` view per state, so the skeletal
        parser indexes a compressed row exactly like a dense one."""
        return [
            _RowView(base, default, self.next, self.check)
            for base, default in zip(self.base, self.default)
        ]

    def expected_symbols(self, state: int) -> List[str]:
        """Symbols with a non-ERROR action (diagnostics for blocking).

        Mirrors :meth:`repro.core.tables.ParseTables.expected_symbols`
        (including the per-state memoization) so either table
        representation can drive the skeletal parser's structured
        blocking error.  Callers must treat the result as immutable.
        """
        cached = self._expected_cache.get(state)
        if cached is not None:
            return cached
        if not 0 <= state < self.nstates:
            return []
        expected = [
            sym
            for sym in self.symbols
            if self.lookup(state, sym) != T.ERROR
        ]
        self._expected_cache[state] = expected
        return expected

    def size_bytes(self) -> int:
        """Four halfword arrays: default, base, next, check."""
        return ENTRY_BYTES * (
            len(self.default) + len(self.base) + len(self.next)
            + len(self.check)
        )

    def size_pages(self) -> float:
        return self.size_bytes() / PAGE_BYTES

    def statistics(self) -> Dict[str, float]:
        used = sum(1 for c in self.check if c >= 0)
        return {
            "states": self.nstates,
            "packed_entries": used,
            "array_length": len(self.next),
            "fill_ratio": used / len(self.next) if self.next else 1.0,
            "size_bytes": self.size_bytes(),
        }

    # ---- serialization ------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize to a stable binary form (halfword entries).

        Layout mirrors :meth:`repro.core.tables.ParseTables.to_bytes`:
        magic, counts, the symbol header, then the four packed arrays.
        ``base`` uses fullwords (displacements can exceed a halfword on
        large grammars); ``check`` is signed so the -1 empty marker
        round-trips.
        """
        names = "\n".join(self.symbols).encode("utf-8")
        nstates = self.nstates
        packed = len(self.next)
        if len(self.check) != packed:
            raise TableError("next/check arrays disagree in length")
        for a in list(self.default) + list(self.next):
            if not 0 <= a <= 0xFFFF:
                raise TableError(
                    f"action {a} does not fit a halfword entry"
                )
        out = [
            _MAGIC,
            struct.pack(
                ">IIII", nstates, len(self.symbols), packed, len(names)
            ),
            names,
            struct.pack(f">{nstates}H", *self.default),
            struct.pack(f">{nstates}I", *self.base),
            struct.pack(f">{packed}H", *self.next),
            struct.pack(f">{packed}h", *self.check),
        ]
        return b"".join(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "CompressedTables":
        if data[: len(_MAGIC)] != _MAGIC:
            raise TableError("bad compressed-table magic")
        off = len(_MAGIC)
        try:
            nstates, nsymbols, packed, names_len = struct.unpack_from(
                ">IIII", data, off
            )
            off += 16
            symbols = data[off : off + names_len].decode("utf-8").split("\n")
            off += names_len
            default = list(struct.unpack_from(f">{nstates}H", data, off))
            off += 2 * nstates
            base = list(struct.unpack_from(f">{nstates}I", data, off))
            off += 4 * nstates
            nxt = list(struct.unpack_from(f">{packed}H", data, off))
            off += 2 * packed
            check = list(struct.unpack_from(f">{packed}h", data, off))
            off += 2 * packed
        except (struct.error, UnicodeDecodeError) as error:
            raise TableError(
                f"truncated or corrupt compressed table: {error}"
            ) from error
        if len(symbols) != nsymbols:
            raise TableError(
                f"compressed-table header names {len(symbols)} symbols, "
                f"expected {nsymbols}"
            )
        if off != len(data):
            raise TableError(
                f"compressed table has {len(data) - off} trailing bytes"
            )
        return cls(
            symbols=symbols,
            default=default,
            base=base,
            next=nxt,
            check=check,
        )


class _RowView:
    """One state's row of the compressed tables, indexed ``row[col]``
    by an interned column code like a dense row: two list indexings
    plus one comparison."""

    __slots__ = ("base", "default", "next", "check", "size")

    def __init__(self, base: int, default: int, next_: List[int],
                 check: List[int]):
        self.base = base
        self.default = default
        self.next = next_
        self.check = check
        self.size = len(next_)

    def __getitem__(self, col: int) -> int:
        slot = self.base + col
        if 0 <= slot < self.size and self.check[slot] == col:
            return self.next[slot]
        return self.default


def compressed_equal(a: CompressedTables, b: CompressedTables) -> bool:
    """Structural equality (used by serialization round-trip tests)."""
    return (
        a.symbols == b.symbols
        and a.default == b.default
        and a.base == b.base
        and a.next == b.next
        and a.check == b.check
    )


def _row_default(row: List[int]) -> int:
    """Most frequent reduce action, or ERROR when the row never reduces.

    One pass over the row; a tie goes to the action met first in the
    row (``max`` keeps the first maximum in insertion order)."""
    counts: Dict[int, int] = {}
    for a in row:
        if a >= 3 and a & 1:  # T.is_reduce, inlined
            counts[a] = counts.get(a, 0) + 1
    if not counts:
        return T.ERROR
    return max(counts, key=counts.__getitem__)


def compress_tables(tables: ParseTables) -> CompressedTables:
    """Compress a dense action matrix; lookups remain O(1)."""
    buildstats.bump("compress_runs")
    defaults: List[int] = [_row_default(row) for row in tables.matrix]

    # Group identical sparse rows so they share a displacement.
    groups: Dict[Tuple[Tuple[int, int], ...], List[int]] = {}
    for state, row in enumerate(tables.matrix):
        entries = tuple(
            (col, action)
            for col, action in enumerate(row)
            if action != defaults[state] and action != T.ERROR
        )
        groups.setdefault(entries, []).append(state)

    next_arr: List[int] = []
    check_arr: List[int] = []
    base: List[int] = [0] * tables.nstates
    # Python-int bitmasks: bit s of ``occupied`` marks a filled slot,
    # bit d of ``taken`` a displacement some row group already uses.
    occupied = 0
    taken = 0

    order = sorted(groups.items(), key=lambda kv: -len(kv[0]))
    for entries, states in order:
        if not entries:
            # Pure-default rows (one group, sorted last) point just past
            # the array, where no check can ever hit.
            disp = len(next_arr)
        else:
            # First fit: the lowest displacement no other group uses
            # whose slots are free for every entry.
            bad = taken
            for col, _action in entries:
                bad |= occupied >> col
            disp = (~bad & (bad + 1)).bit_length() - 1
            size = disp + entries[-1][0] + 1
            if len(next_arr) < size:
                grow = size - len(next_arr)
                next_arr.extend([T.ERROR] * grow)
                check_arr.extend([-1] * grow)
            for col, action in entries:
                next_arr[disp + col] = action
                check_arr[disp + col] = col
                occupied |= 1 << (disp + col)
        taken |= 1 << disp
        for state in states:
            base[state] = disp

    return CompressedTables(
        symbols=list(tables.symbols),
        default=defaults,
        base=base,
        next=next_arr,
        check=check_arr,
    )
