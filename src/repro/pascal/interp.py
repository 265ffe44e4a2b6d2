"""Reference interpreter for the Pascal subset.

Used as the differential-testing oracle: programs are run both here and
through the full compile-to-S/370-and-simulate pipeline, and outputs
must agree.  Arithmetic wraps exactly like the 32-bit target (two's
complement), stores to ``shortint``/``char``/``boolean`` variables
truncate like STH/STC, and ``div``/``mod`` truncate toward zero like DR.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro.errors import InterpError
from repro.pascal import ast as A

_MAX_STEPS = 5_000_000


def _s32(value: int) -> int:
    value &= 0xFFFFFFFF
    return value - 0x100000000 if value & 0x80000000 else value


def _s16(value: int) -> int:
    value &= 0xFFFF
    return value - 0x10000 if value & 0x8000 else value


def _u8(value: int) -> int:
    return value & 0xFF


class _Cell:
    """A mutable storage cell (so var parameters alias properly)."""

    __slots__ = ("value",)

    def __init__(self, value: int = 0):
        self.value = value


class _SetCell:
    """A bitset variable: a Python set of element values."""

    __slots__ = ("values", "type")

    def __init__(self, stype: A.SetType):
        self.type = stype
        self.values: set = set()


class _ArrayCell:
    __slots__ = ("cells", "type")

    def __init__(self, atype: A.ArrayType):
        self.type = atype
        self.cells = [_Cell(0) for _ in range(atype.length)]

    def cell(self, index: int, line: int) -> _Cell:
        if not self.type.low <= index <= self.type.high:
            raise InterpError(
                f"line {line}: index {index} outside "
                f"{self.type.low}..{self.type.high}"
            )
        return self.cells[index - self.type.low]


Storage = Union[_Cell, _ArrayCell, _SetCell]


def _store(cell: _Cell, value: int, vtype: A.PasType) -> None:
    if vtype is A.Scalar.INTEGER:
        cell.value = _s32(value)
    elif vtype is A.Scalar.SHORTINT:
        cell.value = _s16(value)
    else:  # char / boolean
        cell.value = _u8(value)


class Interpreter:
    def __init__(
        self,
        program: A.Program,
        input_values: Optional[List[int]] = None,
    ):
        self.program = program
        self.globals: Dict[str, Storage] = {}
        self.output: List[str] = []
        self.steps = 0
        self.input_values = list(input_values or [])
        self._input_pos = 0

    # ---- plumbing -------------------------------------------------------------

    def _tick(self) -> None:
        self.steps += 1
        if self.steps > _MAX_STEPS:
            raise InterpError("interpreter step limit exceeded")

    @staticmethod
    def _make_storage(vtype: A.PasType) -> Storage:
        if isinstance(vtype, A.ArrayType):
            return _ArrayCell(vtype)
        if isinstance(vtype, A.SetType):
            return _SetCell(vtype)
        return _Cell(0)

    def run(self) -> str:
        import sys

        for var in self.program.variables:
            self.globals[var.name] = self._make_storage(var.type)
        env: Dict[str, Storage] = {}
        assert self.program.body is not None
        # Each Pascal-level call costs several Python frames; give deep
        # (but bounded) recursion room.  The step limit still guards
        # against runaway programs.
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old_limit, 100_000))
        try:
            self._stmt(self.program.body, env)
        finally:
            sys.setrecursionlimit(old_limit)
        return "".join(self.output)

    def _storage(self, decl: A.VarDecl, env: Dict[str, Storage]) -> Storage:
        if decl.storage is A.Storage.GLOBAL:
            return self.globals[decl.name]
        return env[decl.name]

    # ---- statements ------------------------------------------------------------

    def _stmt(self, stmt: A.Stmt, env: Dict[str, Storage]) -> None:
        self._tick()
        if isinstance(stmt, A.Compound):
            for inner in stmt.body:
                self._stmt(inner, env)
        elif isinstance(stmt, A.Assign):
            self._assign(stmt, env)
        elif isinstance(stmt, A.If):
            if self._expr(stmt.cond, env):
                if stmt.then is not None:
                    self._stmt(stmt.then, env)
            elif stmt.otherwise is not None:
                self._stmt(stmt.otherwise, env)
        elif isinstance(stmt, A.While):
            while self._expr(stmt.cond, env):
                self._tick()
                if stmt.body is not None:
                    self._stmt(stmt.body, env)
        elif isinstance(stmt, A.Repeat):
            while True:
                self._tick()
                for inner in stmt.body:
                    self._stmt(inner, env)
                if self._expr(stmt.cond, env):
                    break
        elif isinstance(stmt, A.For):
            self._for(stmt, env)
        elif isinstance(stmt, A.Case):
            self._case(stmt, env)
        elif isinstance(stmt, A.ProcCall):
            assert stmt.decl is not None
            self._call(stmt.decl, stmt.args, env)
        elif isinstance(stmt, A.Write):
            self._write(stmt, env)
        elif isinstance(stmt, A.Read):
            for target in stmt.targets:
                if self._input_pos >= len(self.input_values):
                    raise InterpError(
                        f"line {stmt.line}: read past end of input"
                    )
                value = self.input_values[self._input_pos]
                self._input_pos += 1
                cell, vtype = self._lvalue(target, env)
                _store(cell, value, vtype)
        else:  # pragma: no cover
            raise InterpError(f"cannot interpret {stmt!r}")

    def _assign(self, stmt: A.Assign, env: Dict[str, Storage]) -> None:
        assert stmt.target is not None and stmt.value is not None
        if (
            isinstance(stmt.target, A.VarRef)
            and isinstance(stmt.target.type, A.SetType)
        ):
            assert stmt.target.decl is not None
            dest = self._storage(stmt.target.decl, env)
            assert isinstance(dest, _SetCell)
            dest.values = self._set_value(stmt.value, env)
            return
        if (
            isinstance(stmt.target, A.VarRef)
            and isinstance(stmt.target.type, A.ArrayType)
        ):
            assert isinstance(stmt.value, A.VarRef)
            assert stmt.target.decl is not None
            assert stmt.value.decl is not None
            dest = self._storage(stmt.target.decl, env)
            src = self._storage(stmt.value.decl, env)
            assert isinstance(dest, _ArrayCell)
            assert isinstance(src, _ArrayCell)
            for d, s in zip(dest.cells, src.cells):
                d.value = s.value
            return
        value = self._expr(stmt.value, env)
        cell, vtype = self._lvalue(stmt.target, env)
        _store(cell, value, vtype)

    def _set_value(self, expr: A.Expr, env: Dict[str, Storage]) -> set:
        """Evaluate a (restricted) set expression to a Python set."""
        if isinstance(expr, A.SetLit):
            assert isinstance(expr.type, A.SetType)
            values = set()
            for element in expr.elements:
                value = self._expr(element, env)
                if 0 <= value <= expr.type.high:
                    values.add(value)
                else:
                    raise InterpError(
                        f"line {expr.line}: set element {value} outside "
                        f"0..{expr.type.high}"
                    )
            return values
        if isinstance(expr, A.VarRef):
            assert expr.decl is not None
            cell = self._storage(expr.decl, env)
            assert isinstance(cell, _SetCell)
            return set(cell.values)
        assert isinstance(expr, A.BinOp)
        left = self._set_value(expr.left, env)
        right = self._set_value(expr.right, env)
        if expr.op == "+":
            return left | right
        if expr.op == "-":
            return left - right
        assert expr.op == "*"
        return left & right

    def _case(self, stmt: A.Case, env: Dict[str, Storage]) -> None:
        assert stmt.selector is not None
        value = self._expr(stmt.selector, env)
        for labels, arm in stmt.arms:
            if value in labels:
                self._stmt(arm, env)
                return
        if stmt.otherwise is not None:
            self._stmt(stmt.otherwise, env)

    def _lvalue(self, target: A.Expr, env: Dict[str, Storage]):
        if isinstance(target, A.VarRef):
            assert target.decl is not None
            storage = self._storage(target.decl, env)
            if not isinstance(storage, _Cell):
                raise InterpError(
                    f"line {target.line}: array used as scalar"
                )
            return storage, target.decl.type
        assert isinstance(target, A.IndexRef) and target.decl is not None
        storage = self._storage(target.decl, env)
        assert isinstance(storage, _ArrayCell)
        index = self._expr(target.index, env)
        return storage.cell(index, target.line), storage.type.element

    def _for(self, stmt: A.For, env: Dict[str, Storage]) -> None:
        assert stmt.var is not None and stmt.var.decl is not None
        start = self._expr(stmt.start, env)
        stop = self._expr(stmt.stop, env)
        cell, vtype = self._lvalue(stmt.var, env)
        _store(cell, start, vtype)
        while (cell.value <= stop) if not stmt.downto else (
            cell.value >= stop
        ):
            self._tick()
            if stmt.body is not None:
                self._stmt(stmt.body, env)
            _store(cell, cell.value + (-1 if stmt.downto else 1), vtype)

    def _write(self, stmt: A.Write, env: Dict[str, Storage]) -> None:
        for kind, item in stmt.items:
            if kind == "str":
                self.output.append(str(item))
                continue
            assert isinstance(item, A.Expr)
            value = self._expr(item, env)
            if item.type is A.Scalar.CHAR:
                self.output.append(chr(_u8(value)))
            elif item.type is A.Scalar.BOOLEAN:
                self.output.append("true" if value & 1 else "false")
            else:
                self.output.append(str(_s32(value)))
        if stmt.newline:
            self.output.append("\n")

    # ---- calls ----------------------------------------------------------------------

    def _call(
        self,
        decl: A.RoutineDecl,
        args: List[A.Expr],
        env: Dict[str, Storage],
    ) -> Optional[int]:
        callee_env: Dict[str, Storage] = {}
        for param_decl, param, arg in zip(
            decl.param_decls, decl.params, args
        ):
            if param.by_ref:
                if isinstance(arg, A.VarRef):
                    assert arg.decl is not None
                    callee_env[param_decl.name] = self._storage(
                        arg.decl, env
                    )
                else:
                    assert isinstance(arg, A.IndexRef)
                    cell, _ = self._lvalue(arg, env)
                    callee_env[param_decl.name] = cell
            else:
                # By-value parameters ride in fullword slots: no
                # truncation on binding (matches the compiled code).
                callee_env[param_decl.name] = _Cell(
                    _s32(self._expr(arg, env))
                )
        for var in decl.variables:
            callee_env[var.name] = self._make_storage(var.type)
        if decl.result_decl is not None:
            callee_env[decl.result_decl.name] = _Cell(0)
        assert decl.body is not None
        self._stmt(decl.body, callee_env)
        if decl.result_decl is not None:
            cell = callee_env[decl.result_decl.name]
            assert isinstance(cell, _Cell)
            return cell.value
        return None

    # ---- expressions -------------------------------------------------------------------

    def _expr(self, expr: Optional[A.Expr], env: Dict[str, Storage]) -> int:
        assert expr is not None
        self._tick()
        if isinstance(expr, A.IntLit):
            return _s32(expr.value)
        if isinstance(expr, A.BoolLit):
            return 1 if expr.value else 0
        if isinstance(expr, A.CharLit):
            return ord(expr.value)
        if isinstance(expr, A.VarRef):
            assert expr.decl is not None
            storage = self._storage(expr.decl, env)
            if not isinstance(storage, _Cell):
                raise InterpError(
                    f"line {expr.line}: array used as a value"
                )
            return storage.value
        if isinstance(expr, A.IndexRef):
            cell, _ = self._lvalue(expr, env)
            return cell.value
        if isinstance(expr, A.FuncCall):
            assert expr.decl is not None
            result = self._call(expr.decl, expr.args, env)
            assert result is not None
            return result
        if isinstance(expr, A.UnOp):
            return self._unop(expr, env)
        if isinstance(expr, A.BinOp):
            return self._binop(expr, env)
        raise InterpError(f"cannot evaluate {expr!r}")  # pragma: no cover

    def _unop(self, expr: A.UnOp, env: Dict[str, Storage]) -> int:
        value = self._expr(expr.operand, env)
        if expr.op == "-":
            return _s32(-value)
        if expr.op == "abs":
            return _s32(abs(value))
        if expr.op == "sqr":
            return _s32(value * value)
        if expr.op == "odd":
            return value & 1
        if expr.op == "ord":
            return value
        if expr.op == "chr":
            return _u8(value)
        if expr.op == "succ":
            return _s32(value + 1)
        if expr.op == "pred":
            return _s32(value - 1)
        assert expr.op == "not"
        return (value & 1) ^ 1

    def _binop(self, expr: A.BinOp, env: Dict[str, Storage]) -> int:
        op = expr.op
        if op == "in":
            element = self._expr(expr.left, env)
            members = self._set_value(expr.right, env)
            return 1 if element in members else 0
        if isinstance(expr.left, A.Expr) and isinstance(
            expr.left.type, A.SetType
        ):
            lset = self._set_value(expr.left, env)
            rset = self._set_value(expr.right, env)
            equal = lset == rset
            return 1 if (equal if op == "=" else not equal) else 0
        left = self._expr(expr.left, env)
        if op == "and":
            return (left & 1) & (self._expr(expr.right, env) & 1)
        if op == "or":
            return (left & 1) | (self._expr(expr.right, env) & 1)
        right = self._expr(expr.right, env)
        if op == "+":
            return _s32(left + right)
        if op == "-":
            return _s32(left - right)
        if op == "*":
            return _s32(left * right)
        if op in ("div", "mod"):
            if right == 0:
                raise InterpError(f"line {expr.line}: division by zero")
            quotient = int(left / right)  # truncation toward zero
            if op == "div":
                return _s32(quotient)
            return _s32(left - quotient * right)
        if op == "max":
            return max(left, right)
        if op == "min":
            return min(left, right)
        comparisons = {
            "=": left == right,
            "<>": left != right,
            "<": left < right,
            "<=": left <= right,
            ">": left > right,
            ">=": left >= right,
        }
        return 1 if comparisons[op] else 0


def interpret_source(
    source: str, input_values: Optional[List[int]] = None
) -> str:
    """Parse, check and interpret; returns the program's output."""
    from repro.pascal.parser import parse_source
    from repro.pascal.sema import check_program

    program = check_program(parse_source(source))
    return Interpreter(program, input_values=input_values).run()

