"""AST for the Pascal subset."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union


# ---- types ----------------------------------------------------------------------


class Scalar(enum.Enum):
    """Scalar types map straight onto the paper's operand-typing
    operators (section 4.5): fullword, halfword, byteword."""

    INTEGER = "integer"     # fullword (4 bytes)
    SHORTINT = "shortint"   # halfword (2 bytes) -- the paper's 'z'
    CHAR = "char"           # byteword (1 byte)
    BOOLEAN = "boolean"     # byteword (1 byte)

    # Members are singletons: hash them by identity in C, not by name
    # through ``Enum.__hash__``, a Python call on every lookup of the
    # IF generator's per-type tables.
    __hash__ = object.__hash__

    @property
    def size(self) -> int:
        return {"integer": 4, "shortint": 2, "char": 1, "boolean": 1}[
            self.value
        ]


@dataclass(frozen=True)
class ArrayType:
    low: int
    high: int
    element: Scalar

    @property
    def length(self) -> int:
        return self.high - self.low + 1

    @property
    def size(self) -> int:
        return self.length * self.element.size


@dataclass(frozen=True)
class SetType:
    """``set of 0..high``: a bitset of ``size`` bytes, bit *k* at byte
    ``k div 8``, mask ``0x80 >> (k mod 8)`` -- the paper's set layout
    (its bitmasks table is ``0x80 >> i``)."""

    high: int

    @property
    def size(self) -> int:
        return (self.high + 8) // 8


PasType = Union[Scalar, ArrayType, SetType]


# ---- expressions -----------------------------------------------------------------


@dataclass
class Expr:
    line: int = 0
    type: Optional[PasType] = None  # filled by sema


@dataclass
class IntLit(Expr):
    value: int = 0


@dataclass
class BoolLit(Expr):
    value: bool = False


@dataclass
class CharLit(Expr):
    value: str = "\0"


@dataclass
class VarRef(Expr):
    name: str = ""
    decl: Optional["VarDecl"] = None  # resolved by sema


@dataclass
class IndexRef(Expr):
    name: str = ""
    index: Optional[Expr] = None
    decl: Optional["VarDecl"] = None


@dataclass
class BinOp(Expr):
    op: str = ""            # + - * div mod and or = <> < <= > >=
    left: Optional[Expr] = None
    right: Optional[Expr] = None


@dataclass
class UnOp(Expr):
    op: str = ""            # - not abs odd
    operand: Optional[Expr] = None


@dataclass
class FuncCall(Expr):
    name: str = ""
    args: List[Expr] = field(default_factory=list)
    decl: Optional["RoutineDecl"] = None


@dataclass
class SetLit(Expr):
    """A set constructor ``[e1, e2, ...]`` (possibly empty)."""

    elements: List[Expr] = field(default_factory=list)


# ---- declarations ------------------------------------------------------------------


class Storage(enum.Enum):
    GLOBAL = "global"
    LOCAL = "local"
    PARAM = "param"
    VAR_PARAM = "var_param"


@dataclass
class VarDecl:
    name: str
    type: PasType
    line: int = 0
    storage: Storage = Storage.GLOBAL
    # filled by the shaper:
    offset: int = -1
    #: Storage access width override.  By-value parameters are passed in
    #: fullword frame slots (the caller's ST stores four bytes), so the
    #: callee accesses them as fullwords regardless of declared type.
    access: Optional[Scalar] = None


@dataclass
class ConstDecl:
    name: str
    value: int
    line: int = 0
    is_bool: bool = False
    is_char: bool = False


@dataclass
class Param:
    name: str
    type: PasType
    by_ref: bool = False


@dataclass
class RoutineDecl:
    """A procedure or function (result_type is None for procedures)."""

    name: str
    params: List[Param] = field(default_factory=list)
    result_type: Optional[Scalar] = None
    consts: List[ConstDecl] = field(default_factory=list)
    variables: List[VarDecl] = field(default_factory=list)
    body: Optional["Compound"] = None
    line: int = 0
    # filled by sema / shaper:
    param_decls: List[VarDecl] = field(default_factory=list)
    result_decl: Optional[VarDecl] = None
    label: int = -1

    @property
    def is_function(self) -> bool:
        return self.result_type is not None


# ---- statements -------------------------------------------------------------------


@dataclass
class Stmt:
    line: int = 0


@dataclass
class Assign(Stmt):
    target: Optional[Expr] = None   # VarRef or IndexRef
    value: Optional[Expr] = None


@dataclass
class If(Stmt):
    cond: Optional[Expr] = None
    then: Optional[Stmt] = None
    otherwise: Optional[Stmt] = None


@dataclass
class While(Stmt):
    cond: Optional[Expr] = None
    body: Optional[Stmt] = None


@dataclass
class Repeat(Stmt):
    body: List[Stmt] = field(default_factory=list)
    cond: Optional[Expr] = None


@dataclass
class For(Stmt):
    var: Optional[VarRef] = None
    start: Optional[Expr] = None
    stop: Optional[Expr] = None
    downto: bool = False
    body: Optional[Stmt] = None


@dataclass
class Case(Stmt):
    """``case`` over constant labels; ``arms`` pairs label-value lists
    with statements; ``otherwise`` is the optional ``else`` part."""

    selector: Optional[Expr] = None
    arms: List[Tuple[List[int], Stmt]] = field(default_factory=list)
    otherwise: Optional[Stmt] = None


@dataclass
class ProcCall(Stmt):
    name: str = ""
    args: List[Expr] = field(default_factory=list)
    decl: Optional[RoutineDecl] = None


@dataclass
class Write(Stmt):
    """``write``/``writeln``: ``items`` mixes ("expr", Expr) and
    ("str", text) entries in source order."""

    newline: bool = False
    items: List[Tuple[str, object]] = field(default_factory=list)


@dataclass
class Read(Stmt):
    """``read``/``readln``: integer variables filled from the input
    stream (SVC_READ_INT on the target)."""

    targets: List[Expr] = field(default_factory=list)


@dataclass
class Compound(Stmt):
    body: List[Stmt] = field(default_factory=list)


# ---- program ----------------------------------------------------------------------


@dataclass
class Program:
    name: str
    consts: List[ConstDecl] = field(default_factory=list)
    variables: List[VarDecl] = field(default_factory=list)
    routines: List[RoutineDecl] = field(default_factory=list)
    body: Optional[Compound] = None
