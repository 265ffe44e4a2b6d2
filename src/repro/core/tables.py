"""Parse-table container: encoding, lookup, statistics and serialization.

The generated code generator is "a skeletal parser [plus] tables for
driving the parser" (paper section 2).  This module is the table half.

Action encoding
---------------
Entries are small non-negative integers so that the serialized table uses
2-byte halfwords, matching the S/370-hosted original whose Table 2 sizes
we account for in 4096-byte pages::

    0          ERROR
    1          ACCEPT
    2 + 2*s    SHIFT to state s   (even codes >= 2)
    3 + 2*p    REDUCE production p (odd  codes >= 3)

Shifting covers non-terminal gotos too: the runtime prefixes reduced
left-hand sides back onto the input stream and "shifts" them.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, Iterable, List

from repro.errors import TableError
from repro.core.grammar import END_MARKER

ERROR = 0
ACCEPT = 1

#: Bytes per serialized table entry (an S/370 halfword).
ENTRY_BYTES = 2
#: Paper's page size: "On our machine, 1 page equals 4096 bytes."
PAGE_BYTES = 4096

_MAGIC = b"CoGGtbl1"


def encode_shift(state: int) -> int:
    return 2 + 2 * state


def encode_reduce(pid: int) -> int:
    return 3 + 2 * pid


def is_shift(action: int) -> bool:
    return action >= 2 and action % 2 == 0


def is_reduce(action: int) -> bool:
    return action >= 3 and action % 2 == 1


def shift_state(action: int) -> int:
    assert is_shift(action)
    return (action - 2) // 2


def reduce_pid(action: int) -> int:
    assert is_reduce(action)
    return (action - 3) // 2


def action_str(action: int) -> str:
    """Human-readable action, for diagnostics and conflict reports."""
    if action == ERROR:
        return "error"
    if action == ACCEPT:
        return "accept"
    if is_shift(action):
        return f"shift {shift_state(action)}"
    return f"reduce {reduce_pid(action)}"


@dataclass
class ParseTables:
    """A dense action matrix indexed by ``[state][symbol column]``.

    ``symbols`` fixes the column order; it contains every symbol
    encounterable in the IF during a parse (operators, terminals,
    non-terminals, ``lambda`` and the end marker) -- the paper's
    "X dimension of parse table".
    """

    symbols: List[str]
    matrix: List[List[int]]
    end_symbol: str = END_MARKER
    sym_index: Dict[str, int] = field(init=False, repr=False)
    _expected_cache: Dict[int, List[str]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.sym_index = {s: i for i, s in enumerate(self.symbols)}
        self._expected_cache = {}
        if len(self.sym_index) != len(self.symbols):
            raise TableError("duplicate symbols in parse-table header")
        width = len(self.symbols)
        for row in self.matrix:
            if len(row) != width:
                raise TableError("ragged parse-table row")

    # ---- lookup ------------------------------------------------------------

    @property
    def nstates(self) -> int:
        return len(self.matrix)

    @property
    def nsymbols(self) -> int:
        return len(self.symbols)

    def lookup(self, state: int, symbol: str) -> int:
        """Action for (state, lookahead symbol); ERROR for unknown symbols."""
        col = self.sym_index.get(symbol)
        if col is None:
            return ERROR
        return self.matrix[state][col]

    def expected_symbols(self, state: int) -> List[str]:
        """Symbols with a non-ERROR action in ``state`` (diagnostics for
        blocked parses: 'expected one of ...').

        Memoized per state: the runtime's blocked-parser error path and
        the speclint blocking pass both consult the same sets, often for
        the same handful of states, so each is computed once per table.
        Callers must treat the returned list as immutable.
        """
        cached = self._expected_cache.get(state)
        if cached is not None:
            return cached
        if not 0 <= state < self.nstates:
            return []
        expected = [
            sym
            for sym, action in zip(self.symbols, self.matrix[state])
            if action != ERROR
        ]
        self._expected_cache[state] = expected
        return expected

    # ---- statistics (paper Table 1, rows ii-v) ------------------------------

    def statistics(self) -> Dict[str, int]:
        entries = self.nstates * self.nsymbols
        significant = sum(
            1 for row in self.matrix for a in row if a != ERROR
        )
        return {
            "x_dimension": self.nsymbols,
            "states": self.nstates,
            "parse_table_entries": entries,
            "significant_entries": significant,
        }

    # ---- size accounting (paper Table 2) ------------------------------------

    def size_bytes(self) -> int:
        """Size of the uncompressed matrix at 2 bytes per entry."""
        return self.nstates * self.nsymbols * ENTRY_BYTES

    def size_pages(self) -> float:
        return self.size_bytes() / PAGE_BYTES

    # ---- serialization -------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize to a stable binary form (halfword entries)."""
        names = "\n".join(self.symbols).encode("utf-8")
        out = [
            _MAGIC,
            struct.pack(">III", self.nstates, self.nsymbols, len(names)),
            names,
        ]
        flat: List[int] = [a for row in self.matrix for a in row]
        for a in flat:
            if not 0 <= a <= 0xFFFF:
                raise TableError(
                    f"action {a} does not fit a halfword entry"
                )
        out.append(struct.pack(f">{len(flat)}H", *flat))
        return b"".join(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "ParseTables":
        if data[: len(_MAGIC)] != _MAGIC:
            raise TableError("bad parse-table magic")
        off = len(_MAGIC)
        try:
            nstates, nsymbols, names_len = struct.unpack_from(
                ">III", data, off
            )
            off += 12
            symbols = data[off : off + names_len].decode("utf-8").split("\n")
            off += names_len
            flat = struct.unpack_from(f">{nstates * nsymbols}H", data, off)
            off += 2 * nstates * nsymbols
        except (struct.error, UnicodeDecodeError) as error:
            raise TableError(
                f"truncated or corrupt parse table: {error}"
            ) from error
        if len(symbols) != nsymbols:
            raise TableError(
                f"parse-table header names {len(symbols)} symbols, "
                f"expected {nsymbols}"
            )
        if off != len(data):
            raise TableError(
                f"parse table has {len(data) - off} trailing bytes"
            )
        matrix = [
            list(flat[r * nsymbols : (r + 1) * nsymbols])
            for r in range(nstates)
        ]
        return cls(symbols=symbols, matrix=matrix)

    # ---- construction helper -------------------------------------------------

    @classmethod
    def empty(cls, symbols: Iterable[str], nstates: int) -> "ParseTables":
        syms = list(symbols)
        return cls(
            symbols=syms,
            matrix=[[ERROR] * len(syms) for _ in range(nstates)],
        )


def actions_equal(a: ParseTables, b: ParseTables) -> bool:
    """Structural equality (used by serialization round-trip tests)."""
    return a.symbols == b.symbols and a.matrix == b.matrix


def template_array_size_bytes(
    productions, bytes_per_template_slot: int = 12
) -> int:
    """Approximate serialized size of the template array (Table 2.i).

    The original stored, per template, indices into the translation stack
    and the allocated-register list plus the opcode; we charge a fixed
    record per template operand slot, which is the same accounting.
    """
    total = 0
    for prod in productions:
        for tmpl in prod.templates:
            total += bytes_per_template_slot * (1 + len(tmpl.operands))
    return total
