"""Static semantics for the Pascal subset.

Checks and annotates the AST in one pass per routine: name resolution
(with constant folding of ``const`` identifiers), type checking, lvalue
checking for ``var`` parameters and ``for`` variables, and creation of
the hidden result variable for functions.

Routines are only declared at the program level (the parser enforces
this), so there is no up-level addressing problem: every identifier is
either global or local to the routine being checked.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro.errors import PascalSemaError
from repro.pascal import ast as A

# Scalar kinds as module globals: the checker reads them on every
# expression, and a global read costs a fraction of an enum's.
_BOOLEAN, _CHAR, _INTEGER, _SHORTINT = (
    A.Scalar.BOOLEAN, A.Scalar.CHAR, A.Scalar.INTEGER, A.Scalar.SHORTINT)

Decl = Union[A.ConstDecl, A.VarDecl, A.RoutineDecl]

_INT_TYPES = (_INTEGER, _SHORTINT)


def _is_int(t: A.PasType) -> bool:
    return t in _INT_TYPES


def _compatible(target: A.PasType, value: A.PasType) -> bool:
    if target == value:
        return True
    return _is_int(target) and _is_int(value)


class Scope:
    def __init__(self, parent: Optional["Scope"] = None):
        self.parent = parent
        self.names: Dict[str, Decl] = {}

    def declare(self, name: str, decl: Decl, line: int) -> None:
        if name in self.names:
            raise PascalSemaError(f"{name!r} is already declared", line)
        self.names[name] = decl

    def lookup(self, name: str, line: int) -> Decl:
        scope: Optional[Scope] = self
        while scope is not None:
            decl = scope.names.get(name)
            if decl is not None:
                return decl
            scope = scope.parent
        raise PascalSemaError(f"{name!r} is not declared", line)


class Checker:
    def __init__(self, program: A.Program):
        self.program = program
        self.globals = Scope()
        self.current: Optional[A.RoutineDecl] = None

    # ---- entry point -----------------------------------------------------------

    def check(self) -> A.Program:
        for const in self.program.consts:
            self.globals.declare(const.name, const, const.line)
        for var in self.program.variables:
            var.storage = A.Storage.GLOBAL
            self.globals.declare(var.name, var, var.line)
        for routine in self.program.routines:
            self.globals.declare(routine.name, routine, routine.line)
        for routine in self.program.routines:
            self._check_routine(routine)
        self.current = None
        assert self.program.body is not None
        self._stmt(self.program.body, self.globals)
        return self.program

    # ---- routines ----------------------------------------------------------------

    def _check_routine(self, routine: A.RoutineDecl) -> None:
        scope = Scope(self.globals)
        self.current = routine
        routine.param_decls = []
        for param in routine.params:
            if isinstance(param.type, (A.ArrayType, A.SetType)) \
                    and not param.by_ref:
                raise PascalSemaError(
                    f"array/set parameter {param.name!r} must be a var "
                    f"parameter in this subset",
                    routine.line,
                )
            storage = (
                A.Storage.VAR_PARAM if param.by_ref else A.Storage.PARAM
            )
            decl = A.VarDecl(
                param.name, param.type, line=routine.line, storage=storage
            )
            routine.param_decls.append(decl)
            scope.declare(param.name, decl, routine.line)
        for const in routine.consts:
            scope.declare(const.name, const, const.line)
        for var in routine.variables:
            var.storage = A.Storage.LOCAL
            scope.declare(var.name, var, var.line)
        if routine.is_function:
            assert routine.result_type is not None
            routine.result_decl = A.VarDecl(
                routine.name,
                routine.result_type,
                line=routine.line,
                storage=A.Storage.LOCAL,
            )
        assert routine.body is not None
        self._stmt(routine.body, scope)
        self.current = None

    # ---- statements -----------------------------------------------------------------

    def _stmt(self, stmt: A.Stmt, scope: Scope) -> None:
        if isinstance(stmt, A.Compound):
            for inner in stmt.body:
                self._stmt(inner, scope)
        elif isinstance(stmt, A.Assign):
            self._assign(stmt, scope)
        elif isinstance(stmt, A.If):
            stmt.cond = self._expr(stmt.cond, scope)
            self._require_bool(stmt.cond, "if condition")
            if stmt.then is not None:
                self._stmt(stmt.then, scope)
            if stmt.otherwise is not None:
                self._stmt(stmt.otherwise, scope)
        elif isinstance(stmt, A.While):
            stmt.cond = self._expr(stmt.cond, scope)
            self._require_bool(stmt.cond, "while condition")
            if stmt.body is not None:
                self._stmt(stmt.body, scope)
        elif isinstance(stmt, A.Repeat):
            for inner in stmt.body:
                self._stmt(inner, scope)
            stmt.cond = self._expr(stmt.cond, scope)
            self._require_bool(stmt.cond, "until condition")
        elif isinstance(stmt, A.For):
            self._for(stmt, scope)
        elif isinstance(stmt, A.Case):
            self._case(stmt, scope)
        elif isinstance(stmt, A.ProcCall):
            self._call(stmt, scope, want_result=False)
        elif isinstance(stmt, A.Write):
            self._write(stmt, scope)
        elif isinstance(stmt, A.Read):
            new_targets = []
            for target in stmt.targets:
                target = self._expr(target, scope, lvalue=True)
                assert target.type is not None
                if not _is_int(target.type):
                    raise PascalSemaError(
                        "read targets must be integer variables",
                        stmt.line,
                    )
                new_targets.append(target)
            stmt.targets = new_targets
        else:  # pragma: no cover - parser produces no other statements
            raise PascalSemaError(f"unknown statement {stmt!r}", stmt.line)

    def _assign(self, stmt: A.Assign, scope: Scope) -> None:
        assert stmt.target is not None and stmt.value is not None
        target = self._expr(stmt.target, scope, lvalue=True)
        stmt.target = target
        if isinstance(target.type, A.SetType):
            self._set_assign(stmt, target.type, scope)
            return
        stmt.value = self._expr(stmt.value, scope)
        assert target.type is not None and stmt.value.type is not None
        if isinstance(target.type, A.ArrayType):
            # Whole-array assignment: same type, variable source (the
            # paper's MVC/MVCL templates, productions 10-12).
            if (
                not isinstance(stmt.value, A.VarRef)
                or stmt.value.type != target.type
            ):
                raise PascalSemaError(
                    "whole-array assignment needs a variable of the "
                    "identical array type",
                    stmt.line,
                )
            return
        if not _compatible(target.type, stmt.value.type):
            raise PascalSemaError(
                f"cannot assign {stmt.value.type} to {target.type}",
                stmt.line,
            )

    def _set_assign(
        self, stmt: A.Assign, stype: A.SetType, scope: Scope
    ) -> None:
        """Set assignments are a restricted expression form (the
        storage-to-storage templates need statement-shaped code):
        ``term (op term)*`` evaluated left to right, where terms are
        same-typed set variables or ``[...]`` constructors, ``+``/``*``
        take either, and ``-`` takes only a constructor.  The target may
        only appear as the leftmost term (it is the accumulator)."""
        target = stmt.target
        assert isinstance(target, A.VarRef)

        def check_term(expr: A.Expr, first: bool) -> A.Expr:
            if isinstance(expr, A.SetLit):
                elements = []
                for element in expr.elements:
                    element = self._expr(element, scope)
                    assert element.type is not None
                    if not (
                        _is_int(element.type)
                        or element.type is _CHAR
                    ):
                        raise PascalSemaError(
                            "set elements must be integers or chars",
                            expr.line,
                        )
                    if isinstance(element, A.IntLit) and not (
                        0 <= element.value <= stype.high
                    ):
                        raise PascalSemaError(
                            f"set element {element.value} outside "
                            f"0..{stype.high}",
                            expr.line,
                        )
                    elements.append(element)
                expr.elements = elements
                expr.type = stype
                return expr
            expr = self._expr(expr, scope)
            if expr.type != stype:
                raise PascalSemaError(
                    f"set term has type {expr.type}, expected {stype}",
                    expr.line,
                )
            if not first and isinstance(expr, A.VarRef) \
                    and expr.decl is target.decl:
                raise PascalSemaError(
                    "the assignment target may only be the first set "
                    "term",
                    expr.line,
                )
            return expr

        def check(expr: A.Expr, first: bool) -> A.Expr:
            if isinstance(expr, A.BinOp) and expr.op in ("+", "-", "*"):
                assert expr.left is not None and expr.right is not None
                expr.left = check(expr.left, first)
                expr.right = check_term(expr.right, False)
                if expr.op == "-" and not isinstance(
                    expr.right, A.SetLit
                ):
                    raise PascalSemaError(
                        "set difference is only supported with a "
                        "[...] constructor on the right",
                        expr.line,
                    )
                if expr.op == "*" and isinstance(expr.right, A.SetLit):
                    raise PascalSemaError(
                        "set intersection needs a set variable on the "
                        "right",
                        expr.line,
                    )
                expr.type = stype
                return expr
            return check_term(expr, first)

        assert stmt.value is not None
        stmt.value = check(stmt.value, first=True)

    def _case(self, stmt: A.Case, scope: Scope) -> None:
        assert stmt.selector is not None
        stmt.selector = self._expr(stmt.selector, scope)
        st = stmt.selector.type
        assert st is not None
        if not isinstance(st, A.Scalar):
            raise PascalSemaError(
                "case selector must be a scalar", stmt.line
            )
        seen = set()
        for labels, arm in stmt.arms:
            for label in labels:
                if label in seen:
                    raise PascalSemaError(
                        f"duplicate case label {label}", stmt.line
                    )
                seen.add(label)
            self._stmt(arm, scope)
        if stmt.otherwise is not None:
            self._stmt(stmt.otherwise, scope)

    def _for(self, stmt: A.For, scope: Scope) -> None:
        assert stmt.var is not None
        var = self._expr(stmt.var, scope, lvalue=True)
        if not isinstance(var, A.VarRef) or not _is_int(var.type):
            raise PascalSemaError(
                "for-variable must be a simple integer variable", stmt.line
            )
        stmt.var = var
        stmt.start = self._expr(stmt.start, scope)
        stmt.stop = self._expr(stmt.stop, scope)
        for expr, what in ((stmt.start, "start"), (stmt.stop, "stop")):
            assert expr.type is not None
            if not _is_int(expr.type):
                raise PascalSemaError(
                    f"for {what} value must be an integer", stmt.line
                )
        if stmt.body is not None:
            self._stmt(stmt.body, scope)

    def _write(self, stmt: A.Write, scope: Scope) -> None:
        checked = []
        for kind, item in stmt.items:
            if kind == "str":
                checked.append((kind, item))
                continue
            expr = self._expr(item, scope)
            assert expr.type is not None
            if not isinstance(expr.type, A.Scalar):
                raise PascalSemaError(
                    "cannot write a whole array or set", stmt.line
                )
            checked.append(("expr", expr))
        stmt.items = checked

    def _call(
        self,
        call: Union[A.ProcCall, A.FuncCall],
        scope: Scope,
        want_result: bool,
    ):
        decl = scope.lookup(call.name, call.line)
        if not isinstance(decl, A.RoutineDecl):
            raise PascalSemaError(f"{call.name!r} is not callable", call.line)
        if want_result and not decl.is_function:
            raise PascalSemaError(
                f"procedure {call.name!r} used in an expression", call.line
            )
        if not want_result and decl.is_function:
            raise PascalSemaError(
                f"function {call.name!r} called as a statement", call.line
            )
        if len(call.args) != len(decl.params):
            raise PascalSemaError(
                f"{call.name!r} takes {len(decl.params)} arguments, "
                f"got {len(call.args)}",
                call.line,
            )
        new_args: List[A.Expr] = []
        for arg, param in zip(call.args, decl.params):
            expr = self._expr(arg, scope, lvalue=param.by_ref)
            assert expr.type is not None
            if param.by_ref:
                if not isinstance(expr, (A.VarRef, A.IndexRef)):
                    raise PascalSemaError(
                        f"var parameter {param.name!r} needs a variable",
                        call.line,
                    )
                if expr.type != param.type:
                    raise PascalSemaError(
                        f"var parameter {param.name!r} needs exact type "
                        f"{param.type}",
                        call.line,
                    )
            elif not _compatible(param.type, expr.type):
                raise PascalSemaError(
                    f"argument for {param.name!r}: cannot pass "
                    f"{expr.type} as {param.type}",
                    call.line,
                )
            new_args.append(expr)
        call.args = new_args
        call.decl = decl
        return decl

    # ---- expressions ------------------------------------------------------------------

    def _require_bool(self, expr: A.Expr, what: str) -> None:
        if expr.type is not _BOOLEAN:
            raise PascalSemaError(
                f"{what} must be boolean, not {expr.type}", expr.line
            )

    def _expr(self, expr: A.Expr, scope: Scope, lvalue: bool = False) -> A.Expr:
        assert expr is not None
        if isinstance(expr, A.IntLit):
            expr.type = _INTEGER
            return expr
        if isinstance(expr, A.BoolLit):
            expr.type = _BOOLEAN
            return expr
        if isinstance(expr, A.CharLit):
            expr.type = _CHAR
            return expr
        if isinstance(expr, A.VarRef):
            return self._var_ref(expr, scope, lvalue)
        if isinstance(expr, A.IndexRef):
            return self._index_ref(expr, scope)
        if isinstance(expr, A.BinOp):
            return self._binop(expr, scope)
        if isinstance(expr, A.UnOp):
            return self._unop(expr, scope)
        if isinstance(expr, A.FuncCall):
            decl = self._call(expr, scope, want_result=True)
            expr.type = decl.result_type
            return expr
        if isinstance(expr, A.SetLit):
            raise PascalSemaError(
                "set constructors are only allowed in set assignments",
                expr.line,
            )
        raise PascalSemaError(
            f"unknown expression {expr!r}", expr.line
        )  # pragma: no cover - parser produces no other expressions

    def _var_ref(
        self, expr: A.VarRef, scope: Scope, lvalue: bool
    ) -> A.Expr:
        # Function-name as result variable inside its own body.
        if (
            self.current is not None
            and self.current.is_function
            and expr.name == self.current.name
        ):
            if lvalue:
                assert self.current.result_decl is not None
                expr.decl = self.current.result_decl
                expr.type = self.current.result_type
                return expr
            # Reading the function name is a zero-argument recursive call.
            call = A.FuncCall(line=expr.line, name=expr.name, args=[])
            self._call(call, scope, want_result=True)
            call.type = self.current.result_type
            return call
        decl = scope.lookup(expr.name, expr.line)
        if isinstance(decl, A.ConstDecl):
            if lvalue:
                raise PascalSemaError(
                    f"constant {expr.name!r} cannot be assigned", expr.line
                )
            return self._const_to_literal(decl, expr.line)
        if isinstance(decl, A.RoutineDecl):
            if lvalue:
                raise PascalSemaError(
                    f"routine {expr.name!r} cannot be assigned", expr.line
                )
            call = A.FuncCall(line=expr.line, name=expr.name, args=[])
            rdecl = self._call(call, scope, want_result=True)
            call.type = rdecl.result_type
            return call
        expr.decl = decl
        expr.type = decl.type
        return expr

    @staticmethod
    def _const_to_literal(decl: A.ConstDecl, line: int) -> A.Expr:
        if decl.is_bool:
            lit: A.Expr = A.BoolLit(line=line, value=bool(decl.value))
            lit.type = _BOOLEAN
        elif decl.is_char:
            lit = A.CharLit(line=line, value=chr(decl.value))
            lit.type = _CHAR
        else:
            lit = A.IntLit(line=line, value=decl.value)
            lit.type = _INTEGER
        return lit

    def _index_ref(self, expr: A.IndexRef, scope: Scope) -> A.Expr:
        decl = scope.lookup(expr.name, expr.line)
        if not isinstance(decl, A.VarDecl) or not isinstance(
            decl.type, A.ArrayType
        ):
            raise PascalSemaError(
                f"{expr.name!r} is not an array", expr.line
            )
        expr.index = self._expr(expr.index, scope)
        assert expr.index.type is not None
        if not _is_int(expr.index.type):
            raise PascalSemaError("array index must be an integer", expr.line)
        expr.decl = decl
        expr.type = decl.type.element
        return expr

    def _binop(self, expr: A.BinOp, scope: Scope) -> A.Expr:
        expr.left = self._expr(expr.left, scope)
        expr.right = self._expr(expr.right, scope)
        lt, rt = expr.left.type, expr.right.type
        assert lt is not None and rt is not None
        op = expr.op
        if op == "in":
            if not (_is_int(lt) or lt is _CHAR):
                raise PascalSemaError(
                    "'in' needs an integer or char on the left",
                    expr.line,
                )
            if not isinstance(rt, A.SetType) or not isinstance(
                expr.right, A.VarRef
            ):
                raise PascalSemaError(
                    "'in' needs a set variable on the right", expr.line
                )
            if isinstance(expr.left, A.IntLit) and not (
                0 <= expr.left.value <= rt.high
            ):
                # Statically outside the set: always false; keep the
                # expression but note it cannot be set.
                pass
            expr.type = _BOOLEAN
        elif isinstance(lt, A.SetType) or isinstance(rt, A.SetType):
            if op not in ("=", "<>") or lt != rt:
                raise PascalSemaError(
                    f"sets support only '='/'<>' here, not {op!r} "
                    f"(use a set assignment for +/-/*)",
                    expr.line,
                )
            if not isinstance(expr.left, A.VarRef) or not isinstance(
                expr.right, A.VarRef
            ):
                raise PascalSemaError(
                    "set comparison needs set variables", expr.line
                )
            expr.type = _BOOLEAN
        elif op in ("+", "-", "*", "div", "mod", "max", "min"):
            if not (_is_int(lt) and _is_int(rt)):
                raise PascalSemaError(
                    f"{op!r} needs integer operands", expr.line
                )
            expr.type = _INTEGER
        elif op in ("and", "or"):
            if lt is not _BOOLEAN or rt is not _BOOLEAN:
                raise PascalSemaError(
                    f"{op!r} needs boolean operands", expr.line
                )
            expr.type = _BOOLEAN
        elif op in ("=", "<>", "<", "<=", ">", ">="):
            ok = _compatible(lt, rt) or _compatible(rt, lt)
            if not ok or not isinstance(lt, A.Scalar):
                raise PascalSemaError(
                    f"cannot compare {lt} with {rt}", expr.line
                )
            expr.type = _BOOLEAN
        else:  # pragma: no cover - parser produces no other operators
            raise PascalSemaError(f"unknown operator {op!r}", expr.line)
        return expr

    def _unop(self, expr: A.UnOp, scope: Scope) -> A.Expr:
        expr.operand = self._expr(expr.operand, scope)
        ot = expr.operand.type
        assert ot is not None
        if expr.op in ("-", "abs", "sqr"):
            if not _is_int(ot):
                raise PascalSemaError(
                    f"{expr.op!r} needs an integer operand", expr.line
                )
            expr.type = _INTEGER
        elif expr.op == "ord":
            if not (_is_int(ot) or ot in (_CHAR,
                                          _BOOLEAN)):
                raise PascalSemaError(
                    "ord needs an ordinal operand", expr.line
                )
            expr.type = _INTEGER
        elif expr.op == "chr":
            if not _is_int(ot):
                raise PascalSemaError("chr needs an integer", expr.line)
            expr.type = _CHAR
        elif expr.op in ("succ", "pred"):
            if isinstance(ot, (A.ArrayType, A.SetType)):
                raise PascalSemaError(
                    f"{expr.op} needs an ordinal operand", expr.line
                )
            expr.type = ot
        elif expr.op == "odd":
            if not _is_int(ot):
                raise PascalSemaError("odd needs an integer", expr.line)
            expr.type = _BOOLEAN
        elif expr.op == "not":
            if ot is not _BOOLEAN:
                raise PascalSemaError("not needs a boolean", expr.line)
            expr.type = _BOOLEAN
        else:  # pragma: no cover
            raise PascalSemaError(f"unknown operator {expr.op!r}", expr.line)
        return expr


def check_program(program: A.Program) -> A.Program:
    """Type check and annotate a parsed program in place."""
    return Checker(program).check()
