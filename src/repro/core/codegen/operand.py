"""Semantic values carried on the translation stack.

The parse stack of the skeletal parser is shadowed by a *translation
stack* whose entries say what each grammar symbol denotes at run time:
an allocated register, an even/odd pair, a shaper-supplied attribute
(displacement, count, label number...), the condition code, or a spilled
value waiting in a scratch temporary.

The values compare and hash by their fields and nothing assigns to one
after construction, but they are not ``frozen``: the select pass builds
about 22,600 of them over the five ``big_straightline`` benchmark
programs, and a frozen dataclass's ``__init__`` costs two to three
times as much.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union


@dataclass(slots=True, unsafe_hash=True)
class RegValue:
    """A single allocated register of class ``cls`` (a non-terminal name)."""

    reg: int
    cls: str

    def __str__(self) -> str:
        return f"{self.cls}{self.reg}"


@dataclass(slots=True, unsafe_hash=True)
class PairValue:
    """An even/odd register pair; ``even`` is the even register number."""

    even: int
    cls: str

    @property
    def odd(self) -> int:
        return self.even + 1

    def __str__(self) -> str:
        return f"{self.cls}({self.even},{self.odd})"


@dataclass(slots=True, unsafe_hash=True)
class AttrValue:
    """A terminal attribute set by the shaper (dsp, lng, cnt, lbl, ...)."""

    symbol: str
    value: int

    def __str__(self) -> str:
        return f"{self.symbol}={self.value}"


@dataclass(slots=True, unsafe_hash=True)
class CCValue:
    """The condition code pseudo-register (class ``cc``)."""

    def __str__(self) -> str:
        return "cc"


@dataclass(slots=True, unsafe_hash=True)
class LambdaValue:
    """Marker for a reduced lambda production (statement completed)."""

    def __str__(self) -> str:
        return "lambda"


@dataclass(slots=True, unsafe_hash=True)
class SpilledValue:
    """A register value evicted to a scratch temporary.

    ``disp``/``base`` address the temporary; the emission routine reloads
    it into a fresh register the next time the value is consumed.  (The
    original CoGG avoided this case by having the shaper bound expression
    depth; we keep the mechanism so register exhaustion degrades to slower
    code instead of an abort -- see DESIGN.md.)

    ``remat`` -- an ``(opcode, (disp, index, base))`` recomputation from
    the -O4 spill planner -- means the value was never stored at all:
    each consumption re-executes that instruction instead of loading the
    scratch slot.
    """

    cls: str
    disp: int
    base: int
    remat: "Optional[Tuple[str, Tuple[int, int, int]]]" = None

    def __str__(self) -> str:
        if self.remat is not None:
            return f"remat[{self.remat[0]}]"
        return f"spill[{self.disp}({self.base})]"


StackValue = Union[
    RegValue, PairValue, AttrValue, CCValue, LambdaValue, SpilledValue
]
