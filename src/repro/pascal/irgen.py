"""IF generation: typed Pascal AST -> linearized-tree intermediate form.

This pass plays the role of the paper's front end *and* shaper working
together: it lays out storage (via :mod:`repro.ir.shaper`), resolves
every variable reference to a (type-operator, displacement, base
register) shape, pools large constants and string literals into the
global area, and lowers control flow to labels and conditional branches
over the condition code.

Function calls are *hoisted* out of expressions into compiler
temporaries first: a lambda production (a call) cannot occur in the
middle of an expression parse, so statements stay single trees for the
Graham-Glanville parser.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import PascalSemaError, ShapeError
from repro.ir import ops
from repro.ir.shaper import GlobalArea, SpillArea, StackFrame
from repro.ir.tree import IFTree, Leaf, Node, splice
from repro.ir.linear import IFToken, linearize
from repro.machines.s370 import runtime
from repro.pascal import ast as A

_TYPE_OP = {
    A.Scalar.INTEGER: "fullword",
    A.Scalar.SHORTINT: "halfword",
    A.Scalar.CHAR: "byteword",
    A.Scalar.BOOLEAN: "byteword",
}

#: The storage classes every variable reference tests, read once: an
#: enum member read through its class goes through ``EnumType``'s
#: attribute hook, about 0.1 us a read on CPython 3.11.
_GLOBAL = A.Storage.GLOBAL
_VAR_PARAM = A.Storage.VAR_PARAM

_REL_MASK = {
    "=": ops.COND_EQ,
    "<>": ops.COND_NE,
    "<": ops.COND_LT,
    "<=": ops.COND_LE,
    ">": ops.COND_GT,
    ">=": ops.COND_GE,
}

#: Relation masks mirrored around the comparison (``0 < x`` is ``x > 0``):
#: lt/gt and le/ge swap, eq/ne are symmetric.
_MIRROR_MASK = {
    ops.COND_LT: ops.COND_GT,
    ops.COND_GT: ops.COND_LT,
    ops.COND_LE: ops.COND_GE,
    ops.COND_GE: ops.COND_LE,
    ops.COND_EQ: ops.COND_EQ,
    ops.COND_NE: ops.COND_NE,
}


def _is_zero_literal(expr: A.Expr) -> bool:
    return isinstance(expr, A.IntLit) and expr.value == 0


def _is_testable(expr: A.Expr) -> bool:
    """Signed integer operands only: LTR's code is a signed zero test."""
    return expr.type in (A.Scalar.INTEGER, A.Scalar.SHORTINT)


#: Largest LA immediate (the shaper pools anything bigger, paper 4.5's
#: "storage format" resolution applied to literals).
LA_MAX = 4095

#: Frame offset where spill scratch slots start (locals must stay below).
SPILL_START = 3072


@dataclass
class RoutineIR:
    """One routine's IF: its label, frame and statement trees."""

    name: str
    label: int
    frame: StackFrame
    statements: List[IFTree] = field(default_factory=list)


@dataclass
class IRProgram:
    """The whole program's IF plus the shaped data image."""

    routines: List[RoutineIR]       # main first
    main_label: int
    data: bytes
    spill_frame: SpillArea
    globals_used: int = 0

    def statements(self) -> List[IFTree]:
        return [t for routine in self.routines for t in routine.statements]

    def tokens(self, codes=None) -> List[IFToken]:
        """Linearize; ``codes`` (a table's ``sym_index``) pre-stamps the
        interned symbol codes so the code generator skips its intake
        re-encode."""
        return linearize(self.statements(), codes=codes)


class IRGen:
    """AST -> IF lowering for one program.

    ``checks`` enables subscript range checking (the paper's
    range_check productions 124-125); constant subscripts are checked
    statically either way.
    """

    def __init__(
        self,
        program: A.Program,
        checks: bool = False,
        debug: bool = False,
    ):
        self.program = program
        self.checks = checks
        #: emit a `statement` marker (STMT_RECORD) per source statement,
        #: enabling source-annotated listings.
        self.debug = debug
        self.globals = GlobalArea(runtime.R_GLOBAL_BASE)
        self.spill_frame = SpillArea(runtime.R_STACK_BASE, SPILL_START)
        self._labels = 0
        self._code: List[IFTree] = []
        self._frame: Optional[StackFrame] = None
        self._temps = 0
        #: parameter frame offsets per routine, for callers.
        self._param_offsets: Dict[str, List[int]] = {}
        self._result_present = False

    # ---- small helpers ----------------------------------------------------------

    def new_label(self) -> int:
        self._labels += 1
        return self._labels

    def emit(self, tree: IFTree) -> None:
        self._code.append(tree)

    def frame(self) -> StackFrame:
        assert self._frame is not None
        return self._frame

    def _new_temp(self, scalar: A.Scalar) -> A.VarDecl:
        self._temps += 1
        decl = A.VarDecl(
            f"$t{self._temps}", scalar, storage=A.Storage.LOCAL
        )
        decl.offset = self.frame().alloc(scalar.size, max(scalar.size, 2))
        return decl

    @staticmethod
    def _base_reg(decl: A.VarDecl) -> int:
        if decl.storage is _GLOBAL:
            return runtime.R_GLOBAL_BASE
        return runtime.R_STACK_BASE

    # ---- program drive ------------------------------------------------------------

    def generate(self) -> IRProgram:
        self._layout_globals()
        for routine in self.program.routines:
            self._layout_routine(routine)
        routines: List[RoutineIR] = []
        main_label = self.new_label()
        routines.append(self._gen_main(main_label))
        for routine in self.program.routines:
            routines.append(self._gen_routine(routine))
        return IRProgram(
            routines=routines,
            main_label=main_label,
            data=self.globals.data_image(),
            spill_frame=self.spill_frame,
            globals_used=self.globals.used,
        )

    def _layout_globals(self) -> None:
        for var in self.program.variables:
            size = var.type.size
            align = 4 if isinstance(var.type, A.ArrayType) else max(
                var.type.size, 1
            )
            var.offset = self.globals.alloc(size, align)

    def _layout_routine(self, routine: A.RoutineDecl) -> None:
        frame = StackFrame(
            runtime.R_STACK_BASE, runtime.OFF_LOCALS, SPILL_START
        )
        offsets: List[int] = []
        for decl in routine.param_decls:
            if decl.storage is A.Storage.VAR_PARAM:
                decl.offset = frame.alloc(4, 4)  # the address word
            else:
                # By-value parameters occupy fullword slots: the caller's
                # store_param template uses ST (four bytes).
                assert isinstance(decl.type, A.Scalar)
                decl.offset = frame.alloc(4, 4)
                decl.access = A.Scalar.INTEGER
            offsets.append(decl.offset)
        self._param_offsets[routine.name] = offsets
        if routine.result_decl is not None:
            assert isinstance(routine.result_decl.type, A.Scalar)
            routine.result_decl.offset = frame.alloc(4, 4)
            routine.result_decl.access = A.Scalar.INTEGER
        for var in routine.variables:
            align = 4 if isinstance(var.type, A.ArrayType) else max(
                var.type.size, 1
            )
            var.offset = frame.alloc(var.type.size, align)
        routine.label = self.new_label()
        routine.frame = frame  # type: ignore[attr-defined]

    def _gen_main(self, main_label: int) -> RoutineIR:
        frame = StackFrame(
            runtime.R_STACK_BASE, runtime.OFF_LOCALS, SPILL_START
        )
        # Main's "locals" are the program globals (kept in the global
        # area), so its frame only holds compiler temporaries.
        self._frame = frame
        self._code = []
        self.emit(Node("label_def", (Leaf("lbl", main_label),)))
        self.emit(Node("procedure_entry"))
        assert self.program.body is not None
        self._stmt(self.program.body)
        self.emit(Node("procedure_exit"))
        routine = RoutineIR("$main", main_label, frame, self._code)
        self._frame = None
        return routine

    def _gen_routine(self, decl: A.RoutineDecl) -> RoutineIR:
        self._frame = decl.frame  # type: ignore[attr-defined]
        self._code = []
        self.emit(Node("label_def", (Leaf("lbl", decl.label),)))
        self.emit(Node("procedure_entry"))
        assert decl.body is not None
        self._stmt(decl.body)
        if decl.result_decl is not None:
            self.emit(
                Node("set_result", (self._load_var(decl.result_decl),))
            )
        self.emit(Node("procedure_exit"))
        routine = RoutineIR(decl.name, decl.label, self.frame(), self._code)
        self._frame = None
        return routine

    # ---- statements -------------------------------------------------------------------

    def _stmt(self, stmt: A.Stmt) -> None:
        if self.debug and stmt.line and not isinstance(stmt, A.Compound):
            self.emit(Node("statement", (Leaf("stmt", stmt.line),)))
        if isinstance(stmt, A.Compound):
            for inner in stmt.body:
                self._stmt(inner)
        elif isinstance(stmt, A.Assign):
            self._assign(stmt)
        elif isinstance(stmt, A.If):
            self._if(stmt)
        elif isinstance(stmt, A.While):
            self._while(stmt)
        elif isinstance(stmt, A.Repeat):
            self._repeat(stmt)
        elif isinstance(stmt, A.For):
            self._for(stmt)
        elif isinstance(stmt, A.Case):
            self._case(stmt)
        elif isinstance(stmt, A.ProcCall):
            assert stmt.decl is not None
            args = [self._hoist_calls(a) for a in stmt.args]
            self._emit_call(stmt.decl, args)
        elif isinstance(stmt, A.Write):
            self._write(stmt)
        elif isinstance(stmt, A.Read):
            for target in stmt.targets:
                self.emit(
                    Node(
                        "assign",
                        (self._target_reference(target),
                         Node("read_int")),
                    )
                )
        else:  # pragma: no cover - sema admits no other statements
            raise PascalSemaError(f"cannot lower {stmt!r}", stmt.line)

    def _assign(self, stmt: A.Assign) -> None:
        assert stmt.target is not None and stmt.value is not None
        if (
            isinstance(stmt.target, A.VarRef)
            and isinstance(stmt.target.type, A.SetType)
        ):
            self._set_assign(stmt)
            return
        if (
            isinstance(stmt.target, A.VarRef)
            and isinstance(stmt.target.type, A.ArrayType)
        ):
            self._array_assign(stmt)
            return
        value = self._hoist_calls(stmt.value)
        target_ref = self._target_reference(stmt.target)
        value_tree = self._value(value)
        self.emit(Node("assign", (target_ref, value_tree)))

    def _array_assign(self, stmt: A.Assign) -> None:
        """Whole-array assignment: MVC for blocks up to 256 bytes (with
        the IBM_LENGTH conversion), MVCL through even/odd pairs beyond
        (paper productions 10 and 12)."""
        assert isinstance(stmt.target, A.VarRef)
        assert isinstance(stmt.value, A.VarRef)
        assert isinstance(stmt.target.type, A.ArrayType)
        size = stmt.target.type.size
        dest = self._address_of(stmt.target)
        src = self._address_of(stmt.value)
        if size <= 256:
            self.emit(
                Node("block_assign", (dest, src, Leaf("lng", size)))
            )
        else:
            self.emit(
                Node(
                    "var_assign",
                    (dest, src, self._int_literal(size)),
                )
            )

    def _target_reference(self, target: A.Expr) -> IFTree:
        """The typed storage reference that is the first child of assign."""
        if isinstance(target, A.VarRef):
            assert target.decl is not None
            return self._reference(target.decl)
        assert isinstance(target, A.IndexRef)
        return self._indexed_reference(target)

    def _if(self, stmt: A.If) -> None:
        assert stmt.cond is not None
        cond = self._hoist_calls(stmt.cond)
        else_label = self.new_label()
        self._branch_if_false(cond, else_label)
        if stmt.then is not None:
            self._stmt(stmt.then)
        if stmt.otherwise is None:
            self.emit(Node("label_def", (Leaf("lbl", else_label),)))
            return
        end_label = self.new_label()
        self._goto(end_label)
        self.emit(Node("label_def", (Leaf("lbl", else_label),)))
        self._stmt(stmt.otherwise)
        self.emit(Node("label_def", (Leaf("lbl", end_label),)))

    def _while(self, stmt: A.While) -> None:
        assert stmt.cond is not None
        top = self.new_label()
        end = self.new_label()
        self.emit(Node("label_def", (Leaf("lbl", top),)))
        self._branch_if_false(self._hoist_calls(stmt.cond), end)
        if stmt.body is not None:
            self._stmt(stmt.body)
        self._goto(top)
        self.emit(Node("label_def", (Leaf("lbl", end),)))

    def _repeat(self, stmt: A.Repeat) -> None:
        assert stmt.cond is not None
        top = self.new_label()
        self.emit(Node("label_def", (Leaf("lbl", top),)))
        for inner in stmt.body:
            self._stmt(inner)
        # until cond == loop back while NOT cond.
        self._branch_if_false(self._hoist_calls(stmt.cond), top)

    def _for(self, stmt: A.For) -> None:
        assert stmt.var is not None and stmt.var.decl is not None
        var_decl = stmt.var.decl
        start = self._hoist_calls(stmt.start)
        stop = self._hoist_calls(stmt.stop)
        self.emit(
            Node("assign", (self._reference(var_decl), self._value(start)))
        )
        # The stop value is evaluated once (into a temp unless literal).
        if isinstance(stop, A.IntLit):
            limit_tree = lambda: self._value(stop)  # noqa: E731
        else:
            limit = self._new_temp(A.Scalar.INTEGER)
            self.emit(
                Node("assign", (self._reference(limit), self._value(stop)))
            )
            limit_tree = lambda: self._load_var(limit)  # noqa: E731
        top = self.new_label()
        end = self.new_label()
        exit_mask = ops.COND_GT if not stmt.downto else ops.COND_LT
        self.emit(Node("label_def", (Leaf("lbl", top),)))
        self.emit(
            Node(
                "branch_op",
                (
                    Leaf("lbl", end),
                    Leaf("cond", exit_mask),
                    Node("icompare", (self._load_var(var_decl),
                                      limit_tree())),
                ),
            )
        )
        if stmt.body is not None:
            self._stmt(stmt.body)
        step_op = "decr" if stmt.downto else "incr"
        self.emit(
            Node(
                "assign",
                (
                    self._reference(var_decl),
                    Node(step_op, (self._load_var(var_decl),)),
                ),
            )
        )
        self._goto(top)
        self.emit(Node("label_def", (Leaf("lbl", end),)))

    # ---- sets (paper productions 142-149) -----------------------------------

    def _set_addr(self, ref: A.VarRef, byte: int = 0) -> IFTree:
        """``addr``-rooted reference to a set's storage (+byte offset)."""
        decl = ref.decl
        assert decl is not None
        if decl.storage is A.Storage.VAR_PARAM:
            pointer = Node(
                "fullword",
                (Leaf("dsp", decl.offset),
                 Leaf("r", runtime.R_STACK_BASE)),
            )
            return Node("addr", (Leaf("dsp", byte), pointer))
        return Node(
            "addr",
            (Leaf("dsp", decl.offset + byte),
             Leaf("r", self._base_reg(decl))),
        )

    def _set_element(
        self, sref: A.VarRef, element: A.Expr, op: str,
        stype: A.SetType,
    ) -> None:
        """One element include/exclude/test.  Constant elements fold the
        byte offset into the displacement and pass an elmnt mask (TM/OI/
        NI idioms); computed elements use the bitmask-table sequence."""
        element = self._hoist_calls(element)
        if isinstance(element, A.CharLit):
            lit = A.IntLit(line=element.line, value=ord(element.value))
            lit.type = A.Scalar.INTEGER
            element = lit
        if isinstance(element, A.IntLit):
            if not 0 <= element.value <= stype.high:
                raise PascalSemaError(
                    f"set element {element.value} outside 0..{stype.high}",
                    element.line,
                )
            byte, bit = divmod(element.value, 8)
            mask = 0x80 >> bit
            if op == "clear_bit_value":
                mask = 0xFF ^ mask
            self.emit(
                Node(op, (self._set_addr(sref, byte),
                          Leaf("elmnt", mask)))
            )
            return
        tree = self._value(element)
        if self.checks:
            low = A.IntLit(value=0)
            low.type = A.Scalar.INTEGER
            high = A.IntLit(value=stype.high)
            high.type = A.Scalar.INTEGER
            tree = Node(
                "range_check",
                (tree, self._value(low), self._value(high)),
            )
        self.emit(Node(op, (self._set_addr(sref), tree)))

    def _set_test(
        self, element: A.Expr, sref: A.VarRef
    ) -> IFTree:
        """``e in s`` -> a cc-producing test_bit_value tree."""
        assert isinstance(sref.type, A.SetType)
        element = self._hoist_calls(element)
        if isinstance(element, A.CharLit):
            lit = A.IntLit(line=element.line, value=ord(element.value))
            lit.type = A.Scalar.INTEGER
            element = lit
        if isinstance(element, A.IntLit):
            if not 0 <= element.value <= sref.type.high:
                # Statically outside: compare something always false.
                zero = A.IntLit(value=0)
                zero.type = A.Scalar.INTEGER
                one = A.IntLit(value=1)
                one.type = A.Scalar.INTEGER
                return Node(
                    "icompare", (self._value(zero), self._value(one))
                )
            byte, bit = divmod(element.value, 8)
            return Node(
                "test_bit_value",
                (self._set_addr(sref, byte),
                 Leaf("elmnt", 0x80 >> bit)),
            )
        return Node(
            "test_bit_value",
            (self._set_addr(sref), self._value(element)),
        )

    def _set_assign(self, stmt: A.Assign) -> None:
        """Lower the restricted set-assignment form (sema validated the
        shape): clear/copy into the target, then fold +/-/* terms."""
        target = stmt.target
        assert isinstance(target, A.VarRef)
        assert isinstance(target.type, A.SetType)
        stype = target.type
        size = stype.size

        terms: List[Tuple[str, A.Expr]] = []

        def flatten(expr: A.Expr, op: str) -> None:
            if isinstance(expr, A.BinOp) and expr.op in ("+", "-", "*"):
                assert expr.left is not None and expr.right is not None
                flatten(expr.left, op)
                terms.append((expr.op, expr.right))
            else:
                terms.append((op, expr))

        assert stmt.value is not None
        flatten(stmt.value, "+")

        first_op, first = terms[0]
        rest = terms[1:]
        if isinstance(first, A.VarRef) and first.decl is target.decl:
            pass  # in-place accumulation
        elif isinstance(first, A.SetLit):
            self.emit(
                Node("set_clear",
                     (self._set_addr(target), Leaf("lng", size)))
            )
            for element in first.elements:
                self._set_element(target, element, "set_bit_value", stype)
        else:
            assert isinstance(first, A.VarRef)
            self.emit(
                Node(
                    "block_assign",
                    (self._set_addr(target), self._set_addr(first),
                     Leaf("lng", size)),
                )
            )
        for op, term in rest:
            if isinstance(term, A.SetLit):
                bit_op = (
                    "set_bit_value" if op == "+" else "clear_bit_value"
                )
                for element in term.elements:
                    self._set_element(target, element, bit_op, stype)
            else:
                assert isinstance(term, A.VarRef)
                node_op = "set_union" if op == "+" else "set_intersect"
                self.emit(
                    Node(
                        node_op,
                        (self._set_addr(target), self._set_addr(term),
                         Leaf("lng", size)),
                    )
                )

    def _case(self, stmt: A.Case) -> None:
        """Lower case to a compare chain over a once-evaluated selector
        (a branch table via LABEL_PNTR would be the paper's CASE_INDEX
        path; the chain keeps every variant's grammar sufficient)."""
        assert stmt.selector is not None
        selector = self._hoist_calls(stmt.selector)
        if isinstance(selector, (A.VarRef, A.IntLit)):
            select_tree = lambda: self._value(selector)  # noqa: E731
        else:
            temp = self._new_temp(A.Scalar.INTEGER)
            self.emit(
                Node("assign",
                     (self._reference(temp), self._value(selector)))
            )
            select_tree = lambda: self._load_var(temp)  # noqa: E731
        end = self.new_label()
        arm_labels = [self.new_label() for _ in stmt.arms]
        for (labels, _arm), arm_label in zip(stmt.arms, arm_labels):
            for value in labels:
                lit = A.IntLit(value=value)
                lit.type = A.Scalar.INTEGER
                self.emit(
                    Node(
                        "branch_op",
                        (
                            Leaf("lbl", arm_label),
                            Leaf("cond", ops.COND_EQ),
                            Node("icompare",
                                 (select_tree(), self._value(lit))),
                        ),
                    )
                )
        if stmt.otherwise is not None:
            self._stmt(stmt.otherwise)
        self._goto(end)
        for (_labels, arm), arm_label in zip(stmt.arms, arm_labels):
            self.emit(Node("label_def", (Leaf("lbl", arm_label),)))
            self._stmt(arm)
            self._goto(end)
        self.emit(Node("label_def", (Leaf("lbl", end),)))

    def _write(self, stmt: A.Write) -> None:
        for kind, item in stmt.items:
            if kind == "str":
                offset, length = self.globals.pool_string(str(item))
                if length == 0:
                    continue
                self.emit(
                    Node(
                        "write_str",
                        (
                            Leaf("lng", length),
                            Leaf("dsp", offset),
                            Leaf("r", self.globals.base_reg),
                        ),
                    )
                )
                continue
            expr = self._hoist_calls(item)
            assert isinstance(expr, A.Expr) and expr.type is not None
            if expr.type is A.Scalar.CHAR:
                op = "write_char"
            elif expr.type is A.Scalar.BOOLEAN:
                op = "write_bool"
            else:
                op = "write_int"
            self.emit(Node(op, (self._value(expr),)))
        if stmt.newline:
            self.emit(Node("write_nl"))

    def _goto(self, label: int) -> None:
        self.emit(Node("branch_op", (Leaf("lbl", label),)))

    # ---- calls ---------------------------------------------------------------------------

    def _hoist_calls(self, expr: A.Expr) -> A.Expr:
        """Replace every FuncCall in the expression by a temp variable,
        emitting the parameter stores, the call and the temp assignment
        as preceding statements (innermost calls first)."""
        if isinstance(expr, A.FuncCall):
            assert expr.decl is not None
            args = [self._hoist_calls(a) for a in expr.args]
            assert expr.decl.result_type is not None
            temp = self._new_temp(expr.decl.result_type)
            self._emit_call(expr.decl, args, result_temp=temp)
            ref = A.VarRef(line=expr.line, name=temp.name, decl=temp)
            ref.type = expr.decl.result_type
            return ref
        if isinstance(expr, A.BinOp):
            expr.left = self._hoist_calls(expr.left)
            expr.right = self._hoist_calls(expr.right)
            return expr
        if isinstance(expr, A.UnOp):
            expr.operand = self._hoist_calls(expr.operand)
            return expr
        if isinstance(expr, A.IndexRef):
            expr.index = self._hoist_calls(expr.index)
            return expr
        return expr

    def _emit_call(
        self,
        decl: A.RoutineDecl,
        args: List[A.Expr],
        result_temp: Optional[A.VarDecl] = None,
    ) -> None:
        offsets = self._param_offsets[decl.name]
        for arg, param, offset in zip(args, decl.params, offsets):
            if param.by_ref:
                value: IFTree = self._address_of(arg)
            else:
                value = self._value(arg)
            self.emit(
                Node("store_param", (Leaf("dsp", offset), value))
            )
        call_op = "function_call" if decl.is_function else "procedure_call"
        call = Node(
            call_op,
            (Leaf("cnt", len(args)), Leaf("lbl", decl.label)),
        )
        if decl.is_function:
            assert result_temp is not None
            self.emit(Node("assign", (self._reference(result_temp), call)))
        else:
            self.emit(call)

    def _address_of(self, arg: A.Expr) -> IFTree:
        """The address tree for a var-parameter argument."""
        if isinstance(arg, A.VarRef):
            decl = arg.decl
            assert decl is not None
            if decl.storage is A.Storage.VAR_PARAM:
                # Pass the pointer along.
                return Node(
                    "fullword",
                    (Leaf("dsp", decl.offset),
                     Leaf("r", runtime.R_STACK_BASE)),
                )
            return Node(
                "addr",
                (Leaf("dsp", decl.offset), Leaf("r", self._base_reg(decl))),
            )
        assert isinstance(arg, A.IndexRef) and arg.decl is not None
        index, dsp, base = self._index_parts(arg)
        if index is None:
            return Node("addr", (Leaf("dsp", dsp), base))
        return Node("addr", (index, Leaf("dsp", dsp), base))

    # ---- storage references -----------------------------------------------------------------

    def _reference(self, decl: A.VarDecl) -> IFTree:
        """Typed reference node for a scalar variable (assign target /
        load shape)."""
        assert isinstance(decl.type, A.Scalar)
        type_op = _TYPE_OP[decl.access or decl.type]
        if decl.storage is _VAR_PARAM:
            pointer = Node(
                "fullword",
                (Leaf("dsp", decl.offset), Leaf("r", runtime.R_STACK_BASE)),
            )
            return Node(type_op, (Leaf("dsp", 0), pointer))
        return Node(
            type_op,
            (Leaf("dsp", decl.offset), Leaf("r", self._base_reg(decl))),
        )

    def _load_var(self, decl: A.VarDecl) -> IFTree:
        return self._reference(decl)

    def _index_parts(
        self, ref: A.IndexRef
    ) -> Tuple[Optional[IFTree], int, IFTree]:
        """(scaled-index-tree-or-None, displacement, base-tree).

        The index expression is rebased to the array's low bound and
        scaled by the element size (SLA for the power-of-two sizes, as in
        Appendix 1's ``sla rX,2``).
        """
        decl = ref.decl
        assert decl is not None and isinstance(decl.type, A.ArrayType)
        at = decl.type
        if decl.storage is A.Storage.VAR_PARAM:
            base: IFTree = Node(
                "fullword",
                (Leaf("dsp", decl.offset), Leaf("r", runtime.R_STACK_BASE)),
            )
            dsp = 0
        else:
            base = Leaf("r", self._base_reg(decl))
            dsp = decl.offset
        assert ref.index is not None
        index = ref.index
        if isinstance(index, A.IntLit):
            # Constant subscripts are checked statically and fold into
            # the displacement.
            if not at.low <= index.value <= at.high:
                raise PascalSemaError(
                    f"subscript {index.value} outside "
                    f"{at.low}..{at.high}",
                    ref.line,
                )
            element = index.value - at.low
            offset = dsp + element * at.element.size
            if not 0 <= offset <= LA_MAX:
                raise ShapeError(
                    f"constant subscript {index.value} leaves the "
                    f"addressable range"
                )
            return None, offset, base
        tree = self._value(index)
        if self.checks:
            # range_check value, low, high (paper production 125).
            low = A.IntLit(value=at.low)
            low.type = A.Scalar.INTEGER
            high = A.IntLit(value=at.high)
            high.type = A.Scalar.INTEGER
            tree = Node(
                "range_check",
                (tree, self._value(low), self._value(high)),
            )
        if at.low != 0:
            low_lit = A.IntLit(value=at.low)
            low_lit.type = A.Scalar.INTEGER
            tree = Node("isub", (tree, self._value(low_lit)))
        shift = {1: 0, 2: 1, 4: 2}[at.element.size]
        if shift:
            tree = Node("l_shift", (tree, Leaf("val", shift)))
        return tree, dsp, base

    def _indexed_reference(self, ref: A.IndexRef) -> IFTree:
        decl = ref.decl
        assert decl is not None and isinstance(decl.type, A.ArrayType)
        type_op = _TYPE_OP[decl.type.element]
        index, dsp, base = self._index_parts(ref)
        if index is None:
            return Node(type_op, (Leaf("dsp", dsp), base))
        return Node(type_op, (index, Leaf("dsp", dsp), base))

    # ---- expressions --------------------------------------------------------------------------

    def _int_literal(self, value: int) -> IFTree:
        if 0 <= value <= LA_MAX:
            return Node("pos_constant", (Leaf("val", value),))
        if -LA_MAX <= value < 0:
            return Node("neg_constant", (Leaf("val", -value),))
        offset = self.globals.pool_constant(value)
        return Node(
            "fullword",
            (Leaf("dsp", offset), Leaf("r", self.globals.base_reg)),
        )

    def _value(self, expr: A.Expr) -> IFTree:
        """A tree whose reduction leaves the value in a register."""
        if isinstance(expr, A.IntLit):
            return self._int_literal(expr.value)
        if isinstance(expr, A.BoolLit):
            return self._int_literal(1 if expr.value else 0)
        if isinstance(expr, A.CharLit):
            return self._int_literal(ord(expr.value))
        if isinstance(expr, A.VarRef):
            assert expr.decl is not None
            return self._load_var(expr.decl)
        if isinstance(expr, A.IndexRef):
            return self._indexed_reference(expr)
        if isinstance(expr, A.UnOp):
            return self._unop_value(expr)
        if isinstance(expr, A.BinOp):
            return self._binop_value(expr)
        raise PascalSemaError(
            f"call not hoisted before lowering: {expr!r}", expr.line
        )

    def _unop_value(self, expr: A.UnOp) -> IFTree:
        assert expr.operand is not None
        if expr.op == "-":
            if isinstance(expr.operand, A.IntLit):
                return self._int_literal(-expr.operand.value)
            return Node("ineg", (self._value(expr.operand),))
        if expr.op == "abs":
            return Node("iabs", (self._value(expr.operand),))
        if expr.op == "sqr":
            # The operand is pure after hoisting, so duplication is safe.
            return Node(
                "imult",
                (self._value(expr.operand), self._value(expr.operand)),
            )
        if expr.op == "odd":
            return Node("iodd", (self._value(expr.operand),))
        if expr.op in ("ord", "chr"):
            # Pure type conversions: values already live zero-extended
            # in registers; truncation happens at the store.
            return self._value(expr.operand)
        if expr.op == "succ":
            return Node("incr", (self._value(expr.operand),))
        if expr.op == "pred":
            return Node("decr", (self._value(expr.operand),))
        assert expr.op == "not"
        return Node("boolean_not", (self._value(expr.operand),))

    def _binop_value(self, expr: A.BinOp) -> IFTree:
        assert expr.left is not None and expr.right is not None
        op = expr.op
        if op == "in" or (
            op in ("=", "<>")
            and isinstance(expr.left, A.Expr)
            and isinstance(expr.left.type, A.SetType)
        ):
            mask, cc_tree = self._condition(expr)
            return splice(Leaf("cond", mask), cc_tree)
        if op in _REL_MASK:
            # Materialize the condition code into 0/1 (paper prod. 128).
            mask, cc_tree = self._condition(expr)
            return splice(Leaf("cond", mask), cc_tree)
        if op in ("and", "or"):
            node_op = "boolean_and" if op == "and" else "boolean_or"
            return Node(
                node_op, (self._value(expr.left), self._value(expr.right))
            )
        if op in ("max", "min"):
            node_op = "imax" if op == "max" else "imin"
            return Node(
                node_op, (self._value(expr.left), self._value(expr.right))
            )
        # +1 / -1 become the INCR/DECR idioms (BCTR in Appendix 1b).
        if op in ("+", "-") and isinstance(expr.right, A.IntLit) \
                and expr.right.value == 1:
            idiom = "incr" if op == "+" else "decr"
            return Node(idiom, (self._value(expr.left),))
        if op == "+" and isinstance(expr.left, A.IntLit) \
                and expr.left.value == 1:
            return Node("incr", (self._value(expr.right),))
        # Multiplication by a power of two becomes a left shift (the
        # ``sla`` scaling idiom of Appendix 1).
        for a, b in ((expr.left, expr.right), (expr.right, expr.left)):
            if op == "*" and isinstance(b, A.IntLit) \
                    and b.value > 0 and b.value & (b.value - 1) == 0:
                shift = b.value.bit_length() - 1
                if shift == 0:
                    return self._value(a)
                return Node(
                    "l_shift", (self._value(a), Leaf("val", shift))
                )
        node_op = {
            "+": "iadd", "-": "isub", "*": "imult",
            "div": "idiv", "mod": "imod",
        }[op]
        return Node(
            node_op, (self._value(expr.left), self._value(expr.right))
        )

    # ---- conditions -------------------------------------------------------------------------------

    def _condition(self, expr: A.Expr) -> Tuple[int, IFTree]:
        """(branch mask, cc-producing tree): branch taken when the mask
        matches the condition code the tree leaves behind."""
        if isinstance(expr, A.BinOp) and expr.op == "in":
            assert expr.left is not None
            assert isinstance(expr.right, A.VarRef)
            return ops.COND_TRUE, self._set_test(expr.left, expr.right)
        if (
            isinstance(expr, A.BinOp)
            and expr.op in ("=", "<>")
            and isinstance(expr.left, A.Expr)
            and isinstance(expr.left.type, A.SetType)
        ):
            assert isinstance(expr.left, A.VarRef)
            assert isinstance(expr.right, A.VarRef)
            return (
                _REL_MASK[expr.op],
                Node(
                    "set_compare",
                    (
                        self._set_addr(expr.left),
                        self._set_addr(expr.right),
                        Leaf("lng", expr.left.type.size),
                    ),
                ),
            )
        if isinstance(expr, A.BinOp) and expr.op in _REL_MASK:
            assert expr.left is not None and expr.right is not None
            # Compare-against-zero idiom: LTR sets the same condition
            # code a compare with zero would, saving the constant.
            if _is_zero_literal(expr.right) and _is_testable(expr.left):
                return (
                    _REL_MASK[expr.op],
                    Node("izero_test", (self._value(expr.left),)),
                )
            if _is_zero_literal(expr.left) and _is_testable(expr.right):
                # 0 OP x reads as x OP' 0 with the relation mirrored.
                return (
                    _MIRROR_MASK[_REL_MASK[expr.op]],
                    Node("izero_test", (self._value(expr.right),)),
                )
            return (
                _REL_MASK[expr.op],
                Node(
                    "icompare",
                    (self._value(expr.left), self._value(expr.right)),
                ),
            )
        if isinstance(expr, A.UnOp) and expr.op == "not":
            assert expr.operand is not None
            mask, tree = self._condition(expr.operand)
            return ops.INVERT_COND[mask], tree
        # Everything else: evaluate to 0/1 and test (TM or LTR idioms).
        if isinstance(expr, A.VarRef) and expr.type is A.Scalar.BOOLEAN:
            assert expr.decl is not None
            return (
                ops.COND_TRUE,
                Node("boolean_test", (self._load_var(expr.decl),)),
            )
        return (ops.COND_TRUE, Node("boolean_test", (self._value(expr),)))

    def _branch_if_false(self, cond: A.Expr, label: int) -> None:
        mask, tree = self._condition(cond)
        self.emit(
            Node(
                "branch_op",
                (
                    Leaf("lbl", label),
                    Leaf("cond", ops.INVERT_COND[mask]),
                    tree,
                ),
            )
        )


def generate_ir(
    program: A.Program, checks: bool = False, debug: bool = False
) -> IRProgram:
    """Lower a type-checked program to its IF (main routine first)."""
    return IRGen(program, checks=checks, debug=debug).generate()
