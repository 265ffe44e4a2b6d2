"""LR table construction for the code generator generator.

The paper relies on "well understood algorithms ... for constructing the
code generator's tables" (section 1).  We implement:

* :mod:`items` -- LR(0) items and closure;
* :mod:`automaton` -- the canonical LR(0) collection;
* :mod:`slr` -- SLR(1) action/goto table construction with Glanville's
  conflict-resolution policy (shift preferred over reduce; longer
  production preferred on reduce/reduce);
* :mod:`compress` -- default-reduction + row-displacement ("comb")
  compression, the paper's "Compressed Parse Table" of Table 2.
"""

from repro.core.lr.automaton import LRAutomaton, build_automaton
from repro.core.lr.items import Item, closure
from repro.core.lr.slr import ConflictRecord, build_parse_tables, first_sets, follow_sets
from repro.core.lr.compress import CompressedTables, compress_tables

__all__ = [
    "Item",
    "closure",
    "LRAutomaton",
    "build_automaton",
    "ConflictRecord",
    "build_parse_tables",
    "first_sets",
    "follow_sets",
    "CompressedTables",
    "compress_tables",
]
