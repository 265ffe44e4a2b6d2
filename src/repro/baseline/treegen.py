"""A hand-written tree-walking code generator for the S/370.

This is the style of code generator the paper *replaced*: a direct
recursive walk over IF trees with ad-hoc pattern matching for the
memory-operand and addressing idioms, and a simple ascending-order
register allocator (which is why its output numbers registers 2, 3, 4
... exactly like the PascalVS column of Appendix 1).

Deliberately period-faithful limitation: there is no spill path, so an
expression deeper than the register file raises instead of degrading.
The table-driven generator spills through the shaper's scratch
temporaries in the same situation -- one of the quiet advantages of
centralizing register handling in the generated runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import CodeGenError
from repro.core.codegen.emitter import CodeBuffer, Imm, Mem, R
from repro.core.codegen.labels import LabelDictionary
from repro.core.codegen.loader_records import ResolvedModule, resolve_module
from repro.ir.tree import IFTree, Leaf, Node, SPLICE
from repro.machines.s370 import isa, runtime
from repro.machines.s370.objmod import write_object
from repro.machines.s370.simulator import SimResult, Simulator
from repro.machines.s370.spec import machine_description
from repro.pascal.irgen import IRProgram

_MEM_LOADS = {"fullword": "l", "halfword": "lh"}
_MEM_SIZES = {"fullword": 4, "halfword": 2, "byteword": 1}
_STORES = {"fullword": "st", "halfword": "sth", "byteword": "stc"}
_REL = {"iadd": ("ar", "a", "ah"), "isub": ("sr", "s", "sh")}


class _Regs:
    """Ascending-order scratch register allocation (r2..r9)."""

    def __init__(self) -> None:
        self.free = list(range(2, 10))
        self.busy: List[int] = []

    def get(self) -> int:
        if not self.free:
            raise CodeGenError("baseline: expression too deep (no registers)")
        reg = self.free.pop(0)
        self.busy.append(reg)
        return reg

    def get_pair(self) -> int:
        for even in (2, 4, 6, 8):
            if even in self.free and even + 1 in self.free:
                self.free.remove(even)
                self.free.remove(even + 1)
                self.busy.extend([even, even + 1])
                return even
        raise CodeGenError("baseline: no free even/odd pair")

    def put(self, reg: int) -> None:
        if reg in self.busy:
            self.busy.remove(reg)
            self.free.append(reg)
            self.free.sort()

    def reset(self) -> None:
        self.free = list(range(2, 10))
        self.busy = []


@dataclass
class _MemRef:
    """A resolvable storage operand: disp(index, base)."""

    op: str          # fullword/halfword/byteword
    disp: int
    index: int       # register or 0
    base: int

    def mem(self) -> Mem:
        return Mem(self.disp, self.index, self.base)


class BaselineGenerator:
    """Generate S/370 code for an :class:`IRProgram` by tree walking."""

    def __init__(
        self,
        buffer: Optional[CodeBuffer] = None,
        labels: Optional[LabelDictionary] = None,
    ) -> None:
        # The buffer/labels may be shared with a table-driven run: the
        # graceful-degradation driver re-generates a blocked routine into
        # the same program-wide emission target (ISSUE: fall back
        # per-procedure instead of dying on one bad subtree).
        self.buffer = buffer if buffer is not None else CodeBuffer()
        self.labels = labels if labels is not None else LabelDictionary()
        self.regs = _Regs()
        self.machine = machine_description()

    # ---- public drive --------------------------------------------------------------

    def generate(self, ir: IRProgram) -> Tuple[CodeBuffer, LabelDictionary]:
        for routine in ir.routines:
            self.generate_statements(routine.statements)
        return self.buffer, self.labels

    def generate_statements(self, statements: List[IFTree]) -> None:
        """Generate one routine's statement trees (fallback entry point)."""
        for stmt in statements:
            self.regs.reset()  # statement-local values only
            self._statement(stmt)

    # ---- helpers -----------------------------------------------------------------------

    def _emit(self, opcode: str, *operands, comment: str = "") -> None:
        self.buffer.op(opcode, *operands, comment=comment)

    def _mem_ref(self, tree: IFTree) -> Optional[_MemRef]:
        """Recognize a storage reference we can fold into an RX operand."""
        if not isinstance(tree, Node) or tree.op not in _MEM_SIZES:
            return None
        children = tree.children
        if len(children) == 2:
            index_reg = 0
            dsp, base = children
        else:
            index_tree, dsp, base = children
            index_reg = self._eval(index_tree)
        if not isinstance(dsp, Leaf):
            return None
        if isinstance(base, Leaf):
            base_reg = base.value
        else:
            base_reg = self._eval(base)
        return _MemRef(tree.op, dsp.value, index_reg, base_reg)

    def _release_ref(self, ref: _MemRef) -> None:
        self.regs.put(ref.index)
        self.regs.put(ref.base)

    # ---- expressions ----------------------------------------------------------------------

    def _eval(self, tree: IFTree) -> int:
        """Evaluate a value tree into a register (returned busy)."""
        if isinstance(tree, Leaf):
            if tree.symbol == "r":
                return tree.value  # base register reference
            raise CodeGenError(f"baseline: bare leaf {tree} in value position")
        op = tree.op

        if op in _MEM_SIZES:
            ref = self._mem_ref(tree)
            assert ref is not None
            reg = self.regs.get()
            if ref.op == "byteword":
                self._emit("xr", R(reg), R(reg))
                self._emit("ic", R(reg), ref.mem())
            else:
                self._emit(_MEM_LOADS[ref.op], R(reg), ref.mem())
            self._release_ref(ref)
            return reg
        if op == "addr":
            ref = self._mem_ref(
                Node("fullword", tree.children)
            )
            assert ref is not None
            reg = self.regs.get()
            self._emit("la", R(reg), ref.mem())
            self._release_ref(ref)
            return reg
        if op == "pos_constant":
            reg = self.regs.get()
            assert isinstance(tree.children[0], Leaf)
            self._emit("la", R(reg), Imm(tree.children[0].value))
            return reg
        if op == "neg_constant":
            reg = self.regs.get()
            assert isinstance(tree.children[0], Leaf)
            self._emit("la", R(reg), Imm(tree.children[0].value))
            self._emit("lcr", R(reg), R(reg))
            return reg
        if op in ("iadd", "isub"):
            return self._additive(tree)
        if op == "imult":
            return self._multiply(tree)
        if op in ("idiv", "imod"):
            return self._divide(tree)
        if op == "ineg":
            reg = self._eval(tree.children[0])
            self._emit("lcr", R(reg), R(reg))
            return reg
        if op == "iabs":
            reg = self._eval(tree.children[0])
            self._emit("lpr", R(reg), R(reg))
            return reg
        if op == "iodd":
            reg = self._eval(tree.children[0])
            self._emit(
                "n", R(reg),
                Mem(runtime.OFF_ONE_LOC, 0, runtime.R_PR_BASE),
            )
            return reg
        if op == "incr":
            reg = self._eval(tree.children[0])
            self._emit(
                "a", R(reg),
                Mem(runtime.OFF_ONE_LOC, 0, runtime.R_PR_BASE),
            )
            return reg
        if op == "decr":
            reg = self._eval(tree.children[0])
            self._emit("bctr", R(reg), Imm(0), comment="decrement")
            return reg
        if op in ("imax", "imin"):
            a = self._eval(tree.children[0])
            b = self._eval(tree.children[1])
            self._emit("cr", R(a), R(b))
            mask = isa.COND_GE if op == "imax" else isa.COND_LE
            self.buffer.skip(mask, 1, runtime.R_ENTRY)
            self._emit("lr", R(a), R(b))
            self.regs.put(b)
            return a
        if op in ("l_shift", "r_shift"):
            reg = self._eval(tree.children[0])
            amount = tree.children[1]
            mnemonic = "sla" if op == "l_shift" else "sra"
            if isinstance(amount, Leaf):
                self._emit(mnemonic, R(reg), Imm(amount.value))
            else:
                sreg = self._eval(amount)
                self._emit(mnemonic, R(reg), Mem(0, 0, sreg))
                self.regs.put(sreg)
            return reg
        if op in ("boolean_and", "boolean_or"):
            a = self._eval(tree.children[0])
            b = self._eval(tree.children[1])
            self._emit("nr" if op == "boolean_and" else "or", R(a), R(b))
            self.regs.put(b)
            return a
        if op == "boolean_not":
            reg = self._eval(tree.children[0])
            self._emit(
                "x", R(reg),
                Mem(runtime.OFF_ONE_LOC, 0, runtime.R_PR_BASE),
            )
            return reg
        if op == SPLICE:
            # Materialized condition: splice(cond leaf, cc tree).
            cond, cc_tree = tree.children
            assert isinstance(cond, Leaf)
            self._cc(cc_tree)
            reg = self.regs.get()
            self._emit("la", R(reg), Imm(1))
            self.buffer.skip(cond.value, 2, runtime.R_ENTRY)
            self._emit("la", R(reg), Imm(0))
            return reg
        if op == "read_int":
            self._emit("svc", Imm(isa.SVC_READ_INT))
            reg = self.regs.get()
            self._emit("lr", R(reg), R(1))
            return reg
        if op == "function_call":
            return self._call(tree, is_function=True)
        if op == "range_check":
            return self._range_check(tree)
        if op in ("make_common", "use_common"):
            raise CodeGenError(
                "baseline: run with optimize=False (no CSE support)"
            )
        raise CodeGenError(f"baseline: cannot evaluate {op!r}")

    def _additive(self, tree: Node) -> int:
        rr, rx_full, rx_half = _REL[tree.op]
        left, right = tree.children
        reg = self._eval(left)
        ref = self._mem_ref(right)
        if ref is not None and ref.op != "byteword":
            self._emit(rx_full if ref.op == "fullword" else rx_half,
                       R(reg), ref.mem())
            self._release_ref(ref)
            return reg
        if ref is not None:
            self._release_ref(ref)
        other = self._eval(right)
        self._emit(rr, R(reg), R(other))
        self.regs.put(other)
        return reg

    def _multiply(self, tree: Node) -> int:
        left, right = tree.children
        value = self._eval(left)
        even = self.regs.get_pair()
        self._emit("lr", R(even + 1), R(value))
        self.regs.put(value)
        ref = self._mem_ref(right)
        if ref is not None and ref.op == "fullword":
            self._emit("m", R(even), ref.mem())
            self._release_ref(ref)
        elif ref is not None and ref.op == "halfword":
            self._emit("mh", R(even + 1), ref.mem())
            self._release_ref(ref)
        else:
            if ref is not None:
                self._release_ref(ref)
            other = self._eval(right)
            self._emit("mr", R(even), R(other))
            self.regs.put(other)
        self.regs.put(even)
        return even + 1

    def _divide(self, tree: Node) -> int:
        left, right = tree.children
        value = self._eval(left)
        even = self.regs.get_pair()
        self._emit("lr", R(even), R(value))
        self.regs.put(value)
        self._emit("srda", R(even), Imm(32), comment="propagate sign")
        ref = self._mem_ref(right)
        if ref is not None and ref.op == "fullword":
            self._emit("d", R(even), ref.mem())
            self._release_ref(ref)
        else:
            if ref is not None:
                self._release_ref(ref)
            other = self._eval(right)
            self._emit("dr", R(even), R(other))
            self.regs.put(other)
        if tree.op == "idiv":
            self.regs.put(even)
            return even + 1
        self.regs.put(even + 1)
        return even

    def _range_check(self, tree: Node) -> int:
        value = self._eval(tree.children[0])
        low = self._eval(tree.children[1])
        high = self._eval(tree.children[2])
        self._emit("cr", R(value), R(low))
        self._emit(
            "bal", R(runtime.R_LINK),
            Mem(runtime.OFF_UNDERFLOW, 0, runtime.R_PR_BASE),
        )
        self._emit("cr", R(value), R(high))
        self._emit(
            "bal", R(runtime.R_LINK),
            Mem(runtime.OFF_OVERFLOW, 0, runtime.R_PR_BASE),
        )
        self.regs.put(low)
        self.regs.put(high)
        return value

    # ---- conditions ---------------------------------------------------------------------------

    def _cc(self, tree: IFTree) -> None:
        """Emit code leaving the condition in the condition code."""
        assert isinstance(tree, Node)
        if tree.op == "icompare":
            left, right = tree.children
            reg = self._eval(left)
            ref = self._mem_ref(right)
            if ref is not None and ref.op in ("fullword", "halfword"):
                self._emit("c" if ref.op == "fullword" else "ch",
                           R(reg), ref.mem())
                self._release_ref(ref)
            else:
                if ref is not None:
                    self._release_ref(ref)
                other = self._eval(right)
                self._emit("cr", R(reg), R(other))
                self.regs.put(other)
            self.regs.put(reg)
            return
        if tree.op == "test_bit_value":
            addr_t, element = tree.children
            if isinstance(element, Leaf) and element.symbol == "elmnt":
                if isinstance(addr_t, Node) and addr_t.op == "addr":
                    ref = self._mem_ref(
                        Node("byteword", addr_t.children)
                    )
                    assert ref is not None
                    self._emit("tm", ref.mem(), Imm(element.value))
                    self._release_ref(ref)
                    return
                base = self._eval(addr_t)
                self._emit("tm", Mem(0, 0, base), Imm(element.value))
                self.regs.put(base)
                return
            base = self._eval(addr_t)
            elem = self._eval(element)
            bit = self.regs.get()
            self._emit("lr", R(bit), R(elem))
            self._emit("srl", R(elem), Imm(3))
            self._emit("n", R(bit),
                       Mem(runtime.OFF_SEVEN_LOC, 0, runtime.R_PR_BASE))
            self._emit("ic", R(elem), Mem(0, elem, base))
            self._emit("sll", R(bit), Imm(2))
            self._emit("n", R(elem),
                       Mem(runtime.OFF_BITMASKS, bit, runtime.R_PR_BASE))
            for reg in (base, elem, bit):
                self.regs.put(reg)
            return
        if tree.op == "set_compare":
            left_t, right_t, lng = tree.children
            assert isinstance(lng, Leaf)
            left = self._eval(left_t)
            right = self._eval(right_t)
            self._emit("clc", Mem(0, lng.value - 1, left),
                       Mem(0, 0, right))
            self.regs.put(left)
            self.regs.put(right)
            return
        if tree.op == "izero_test":
            reg = self._eval(tree.children[0])
            self._emit("ltr", R(reg), R(reg))
            self.regs.put(reg)
            return
        if tree.op == "boolean_test":
            operand = tree.children[0]
            ref = self._mem_ref(operand)
            if ref is not None and ref.op == "byteword" \
                    and ref.index == 0:
                self._emit("tm", Mem(ref.disp, 0, ref.base), Imm(1))
                self._release_ref(ref)
                return
            if ref is not None:
                self._release_ref(ref)
            reg = self._eval(operand)
            self._emit("ltr", R(reg), R(reg))
            self.regs.put(reg)
            return
        raise CodeGenError(f"baseline: {tree.op!r} produces no condition")

    def _set_element(self, stmt: Node) -> None:
        """Element include/exclude: SI idiom for constant masks, the
        bitmask-table sequence for computed elements."""
        addr_t, element = stmt.children
        include = stmt.op == "set_bit_value"
        if isinstance(element, Leaf) and element.symbol == "elmnt":
            ref = self._mem_ref(Node("byteword", addr_t.children)) \
                if isinstance(addr_t, Node) and addr_t.op == "addr" \
                else None
            if ref is not None:
                self._emit("oi" if include else "ni",
                           ref.mem(), Imm(element.value))
                self._release_ref(ref)
                return
            base = self._eval(addr_t)
            self._emit("oi" if include else "ni",
                       Mem(0, 0, base), Imm(element.value))
            self.regs.put(base)
            return
        base = self._eval(addr_t)
        elem = self._eval(element)
        bit = self.regs.get()
        scratch = self.regs.get()
        self._emit("lr", R(bit), R(elem))
        self._emit("srl", R(elem), Imm(3))
        self._emit("n", R(bit),
                   Mem(runtime.OFF_SEVEN_LOC, 0, runtime.R_PR_BASE))
        self._emit("sll", R(bit), Imm(2))
        self._emit("xr", R(scratch), R(scratch))
        self._emit("ic", R(scratch), Mem(0, elem, base))
        table = runtime.OFF_BITMASKS if include else runtime.OFF_BITMASKS_C
        self._emit("o" if include else "n", R(scratch),
                   Mem(table, bit, runtime.R_PR_BASE))
        self._emit("stc", R(scratch), Mem(0, elem, base))
        for reg in (base, elem, bit, scratch):
            self.regs.put(reg)

    # ---- calls ------------------------------------------------------------------------------------

    def _call(self, tree: Node, is_function: bool) -> int:
        label = tree.children[1]
        assert isinstance(label, Leaf)
        self.labels.reference(label.value)
        site = self.buffer.branch(0, label.value, runtime.R_ENTRY,
                                  comment="call")
        site.link_reg = runtime.R_LINK
        if is_function:
            reg = self.regs.get()
            self._emit("lr", R(reg), R(runtime.R_RESULT))
            return reg
        return 0

    # ---- statements ----------------------------------------------------------------------------------

    def _statement(self, stmt: IFTree) -> None:
        assert isinstance(stmt, Node)
        op = stmt.op
        if op == "statement":
            marker = stmt.children[0]
            assert isinstance(marker, Leaf)
            self.buffer.mark_statement(marker.value)
            return
        if op == "label_def":
            label = stmt.children[0]
            assert isinstance(label, Leaf)
            self.labels.define(label.value)
            self.buffer.mark_label(label.value)
        elif op == "procedure_entry":
            self._emit(
                "stm", R(runtime.R_LINK), R(runtime.R_CODE_BASE),
                Mem(runtime.OFF_SAVE_AREA, 0, runtime.R_STACK_BASE),
            )
            self._emit(
                "bal", R(runtime.R_LINK),
                Mem(runtime.OFF_ENTRY_CODE, 0, runtime.R_PR_BASE),
            )
        elif op == "procedure_exit":
            self._emit(
                "st", R(runtime.R_STACK_BASE),
                Mem(runtime.OFF_NEXT_FRAME, 0, runtime.R_PR_BASE),
            )
            self._emit(
                "l", R(runtime.R_STACK_BASE),
                Mem(runtime.OFF_OLD_BASE, 0, runtime.R_STACK_BASE),
            )
            self._emit(
                "l", R(runtime.R_LINK),
                Mem(runtime.OFF_SAVE_AREA, 0, runtime.R_STACK_BASE),
            )
            self._emit(
                "lm", R(2), R(runtime.R_CODE_BASE),
                Mem(runtime.OFF_SAVE_AREA + 16, 0, runtime.R_STACK_BASE),
            )
            self._emit("bcr", Imm(isa.COND_ALWAYS), R(runtime.R_LINK))
        elif op == "assign":
            self._assign(stmt)
        elif op == "block_assign":
            dest_t, src_t, lng = stmt.children
            assert isinstance(lng, Leaf)
            dest = self._eval(dest_t)
            src = self._eval(src_t)
            self._emit(
                "mvc",
                Mem(0, lng.value - 1, dest),
                Mem(0, 0, src),
            )
            self.regs.put(dest)
            self.regs.put(src)
        elif op == "var_assign":
            dest_t, src_t, size_t = stmt.children
            dest = self._eval(dest_t)
            src = self._eval(src_t)
            size = self._eval(size_t)
            d_pair = self.regs.get_pair()
            s_pair = self.regs.get_pair()
            self._emit("lr", R(d_pair), R(dest))
            self._emit("lr", R(d_pair + 1), R(size))
            self._emit("lr", R(s_pair), R(src))
            self._emit("lr", R(s_pair + 1), R(size))
            self._emit("mvcl", R(d_pair), R(s_pair))
            for reg in (dest, src, size, d_pair, d_pair + 1,
                        s_pair, s_pair + 1):
                self.regs.put(reg)
        elif op in ("set_bit_value", "clear_bit_value"):
            self._set_element(stmt)
        elif op == "set_clear":
            addr_t, lng = stmt.children
            assert isinstance(lng, Leaf)
            addr = self._eval(addr_t)
            self._emit("xc", Mem(0, lng.value - 1, addr), Mem(0, 0, addr))
            self.regs.put(addr)
        elif op in ("set_union", "set_intersect"):
            dest_t, src_t, lng = stmt.children
            assert isinstance(lng, Leaf)
            dest = self._eval(dest_t)
            src = self._eval(src_t)
            mnemonic = "oc" if op == "set_union" else "nc"
            self._emit(
                mnemonic, Mem(0, lng.value - 1, dest), Mem(0, 0, src)
            )
            self.regs.put(dest)
            self.regs.put(src)
        elif op == "branch_op":
            self._branch(stmt)
        elif op == "procedure_call":
            self._call(stmt, is_function=False)
        elif op == "store_param":
            dsp, value = stmt.children
            assert isinstance(dsp, Leaf)
            reg = self._eval(value)
            frame = self.regs.get()
            self._emit(
                "l", R(frame),
                Mem(runtime.OFF_NEXT_FRAME, 0, runtime.R_PR_BASE),
            )
            self._emit("st", R(reg), Mem(dsp.value, 0, frame))
            self.regs.put(frame)
            self.regs.put(reg)
        elif op == "set_result":
            reg = self._eval(stmt.children[0])
            self._emit("lr", R(runtime.R_RESULT), R(reg))
            self.regs.put(reg)
        elif op in ("write_int", "write_char", "write_bool"):
            svc = {
                "write_int": isa.SVC_WRITE_INT,
                "write_char": isa.SVC_WRITE_CHAR,
                "write_bool": isa.SVC_WRITE_BOOL,
            }[op]
            reg = self._eval(stmt.children[0])
            self._emit("lr", R(1), R(reg))
            self.regs.put(reg)
            self._emit("svc", Imm(svc))
        elif op == "write_str":
            lng, dsp, base = stmt.children
            assert isinstance(lng, Leaf) and isinstance(dsp, Leaf)
            assert isinstance(base, Leaf)
            self._emit("la", R(1), Mem(dsp.value, 0, base.value))
            self._emit("la", R(2), Imm(lng.value))
            self._emit("svc", Imm(isa.SVC_WRITE_STR))
        elif op == "write_nl":
            self._emit("svc", Imm(isa.SVC_WRITE_NL))
        else:
            raise CodeGenError(f"baseline: unknown statement {op!r}")

    def _assign(self, stmt: Node) -> None:
        target, value = stmt.children
        assert isinstance(target, Node)
        # Materialized boolean straight into storage (MVI idiom).
        if (
            isinstance(value, Node)
            and value.op == SPLICE
            and target.op == "byteword"
            and len(target.children) == 2
        ):
            cond, cc_tree = value.children
            assert isinstance(cond, Leaf)
            ref = self._mem_ref(
                Node("byteword", target.children)
            )
            assert ref is not None
            self._cc(cc_tree)
            self._emit("mvi", ref.mem(), Imm(1))
            self.buffer.skip(cond.value, 2, runtime.R_ENTRY)
            self._emit("mvi", ref.mem(), Imm(0))
            self._release_ref(ref)
            return
        reg = self._eval(value)
        ref = self._mem_ref(target)
        assert ref is not None
        self._emit(_STORES[ref.op], R(reg), ref.mem())
        self._release_ref(ref)
        self.regs.put(reg)

    def _branch(self, stmt: Node) -> None:
        label = stmt.children[0]
        assert isinstance(label, Leaf)
        self.labels.reference(label.value)
        if len(stmt.children) == 1:
            self.buffer.branch(isa.COND_ALWAYS, label.value,
                               runtime.R_ENTRY, comment="goto")
            return
        cond = stmt.children[1]
        assert isinstance(cond, Leaf)
        self._cc(stmt.children[2])
        self.buffer.branch(cond.value, label.value, runtime.R_ENTRY)


@dataclass
class BaselineProgram:
    """Compilation result mirroring
    :class:`repro.pascal.compiler.CompiledProgram` for comparisons."""

    module: ResolvedModule
    data: bytes
    object_records: bytes

    def listing(self) -> str:
        return self.module.listing()

    def run(self, max_steps: int = 2_000_000) -> SimResult:
        simulator = Simulator()
        simulator.load_image(
            runtime.ExecutableImage(
                code=self.module.code,
                entry=self.module.entry,
                data=self.data,
                relocations=list(self.module.relocations),
            )
        )
        return simulator.run(max_steps=max_steps)


def compile_baseline(source: str, checks: bool = False) -> BaselineProgram:
    """Compile Pascal source with the hand-written generator; ``checks``
    range-checks subscripts, as in the table-driven compiler."""
    from repro.core.codegen.parser_rt import GeneratedCode
    from repro.core.codegen.cse import CseManager
    from repro.pascal.parser import parse_source
    from repro.pascal.sema import check_program
    from repro.pascal.irgen import generate_ir

    program = check_program(parse_source(source))
    ir = generate_ir(program, checks=checks)
    gen = BaselineGenerator()
    buffer, labels = gen.generate(ir)
    generated = GeneratedCode(buffer=buffer, labels=labels,
                              cse=CseManager())
    module = resolve_module(
        generated, gen.machine, entry_label=ir.main_label
    )
    records = write_object(module, data=ir.data,
                           name=program.name[:8].upper())
    return BaselineProgram(
        module=module, data=ir.data, object_records=records
    )
