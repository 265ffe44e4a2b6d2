"""Metrics for the evaluation harness.

* :func:`register_reuse_distance` -- the pipeline-contention proxy for
  the paper's section 4.1 claim ("least recently used ... in an attempt
  to reduce operand contention in the pipeline"): the average number of
  instructions between consecutive writes to the same register (the
  register reuse interval).  Bigger is better for a pipelined machine
  like the Amdahl 470.
* :func:`loc_inventory` -- line counts per package, for the section 6
  size comparison (CoGG < 3000 lines vs. a 5000-line hand generator).
* :func:`idiom_counts` -- mnemonic histogram of a listing, used by the
  Appendix 1 benchmark to assert idiom parity (SLA scaling, SRDA/DR
  division, BCTR decrement...).
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from repro.core.codegen.emitter import Instr, R

#: Opcodes whose first register operand is *written* (simplified S/370
#: dataflow, enough for a relative contention metric).
_WRITES_FIRST = {
    "l", "lh", "la", "ic", "a", "ah", "s", "sh", "m", "mh", "d",
    "n", "o", "x", "lr", "ltr", "lcr", "lpr", "lnr", "ar", "sr", "mr",
    "dr", "nr", "or", "xr", "sla", "sra", "sll", "srl", "slda", "srda",
    "bal", "balr", "bctr", "bct",
}

def _write_of(instr: Instr) -> Optional[int]:
    if instr.opcode in _WRITES_FIRST and instr.operands:
        first = instr.operands[0]
        if isinstance(first, R):
            return first.n
    return None


def register_reuse_distance(instructions: Iterable[Instr]) -> float:
    """Mean distance (in instructions) between consecutive *writes* to
    the same register -- the register reuse interval.

    The dataflow (write -> read of the value) is fixed by the program,
    so what an allocation policy controls is how soon a register is
    *recycled* for an unrelated value.  Short reuse intervals create the
    write-after-read/write-after-write contention the Amdahl 470's
    pipeline dislikes; the paper's LRU strategy maximizes them ("the
    register with the lowest usage index was changed at a time previous
    to all other registers", section 4.1).
    """
    instrs = list(instructions)
    gaps: List[int] = []
    last_write: Dict[int, int] = {}
    for index, instr in enumerate(instrs):
        written = _write_of(instr)
        if written is not None:
            if written in last_write:
                gaps.append(index - last_write[written])
            last_write[written] = index
    if not gaps:
        return 0.0
    return sum(gaps) / len(gaps)


def loc_inventory(root: Optional[Path] = None) -> Dict[str, int]:
    """Non-blank, non-comment line counts per subpackage."""
    if root is None:
        root = Path(__file__).resolve().parents[1]  # src/repro
    counts: Counter = Counter()
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root)
        top = rel.parts[0] if len(rel.parts) > 1 else "(top)"
        in_docstring = False
        for line in path.read_text().splitlines():
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            quotes = stripped.count('"""') + stripped.count("'''")
            if in_docstring:
                if quotes:
                    in_docstring = False
                continue
            if quotes == 1:
                in_docstring = True
                continue
            if quotes >= 2 and (
                stripped.startswith('"""') or stripped.startswith("'''")
            ):
                continue
            counts[top] += 1
    return dict(counts)


def idiom_counts(listing: str) -> Counter:
    """Histogram of mnemonics in a resolved listing.

    Relies on the fixed :class:`ListingLine` layout (6-hex-digit address,
    hex bytes, then text); labels (``EQU``), data (``DC``) and comment
    lines are skipped.
    """
    counter: Counter = Counter()
    for line in listing.splitlines():
        text = line[25:].strip() if len(line) > 25 else ""
        if not text or text.startswith("*"):
            continue
        words = text.split()
        if len(words) >= 2 and words[1] == "EQU":
            continue
        if words[0] in ("DC",):
            continue
        if words[0].isalpha():
            counter[words[0]] += 1
    return counter


def steps_per_second(steps: int, seconds: float) -> float:
    """Simulator dispatch throughput; 0.0 on degenerate timings."""
    return steps / seconds if seconds > 0 else 0.0


def routines_per_second(routines: int, seconds: float) -> float:
    """Batch-compilation throughput; 0.0 on degenerate timings."""
    return routines / seconds if seconds > 0 else 0.0
