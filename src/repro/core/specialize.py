"""Compiled reducers: one production's reduction as straight-line Python.

The generic reducer (:meth:`repro.core.codegen.parser_rt.CodeGenerator._reduce`)
walks a production's :class:`~repro.core.codegen.parser_rt._ProdPlan`
on every reduction.  Once a production has been reduced
:data:`~repro.core.codegen.parser_rt.COMPILE_THRESHOLD` times, the code
generator asks this module for a reducer compiled from that live plan
and installs it in the production's slot.  In the compiled reducer

* the RHS pops, pins, ``using``/``need`` allocation with the class name
  and binding key baked in as literals, the template sequence and the
  LHS epilogue are unrolled into one function;
* productions without semantic-operator handlers skip the
  ``EmissionContext`` entirely and resolve every template operand
  inline from locals (the interned ``R`` operand table indexed
  directly, constant operands prebuilt and shared); and
* the register allocator's LRU scans, pins and releases are inlined as
  field operations on its register pool.

Skipping the ``EmissionContext`` for handler-free productions is safe
because the context exists for two consumers only: semantic-operator
handlers (absent by construction) and the allocator's spill/move
patching hook ``_patch_values`` -- which can never match a binding of
the current reduction, since every register bound during a reduction
(RHS operands and fresh allocations alike) is pinned before anything
can allocate, and pinned registers are never spill victims.  Spilled
*incoming* operands still need the context's reload machinery, so the
fast reducers guard on ``SpilledValue`` and hand that reduction to the
generic reducer.

A compiled reducer has the generic one's contract: it returns
``(code, symbol, value)`` of the LHS for the main loop to shift, or
``None`` after pushing the tokens to re-parse onto ``front``.  The two
emit identical code (``tests/test_specialize.py``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple


# ---- emission: inline operand resolution ------------------------------------
#
# These helpers mirror parser_rt's _compile_int/_compile_reg/
# _compile_operand closure compilers, but emit *source text* operating
# on the fast reducer's locals instead of closures over ctx.bindings.
# Error messages are reproduced exactly; runtime values are spliced via
# string concatenation so arbitrary spec text never breaks the f-string
# quoting of the generated reducer.


def _inline_int(primary, tmpl, prod, gen, env):
    """Mirror of ``_compile_int``: ``(const, None)`` or ``(None,
    writer)`` where ``writer(out, ind, dst)`` emits statements binding
    the resolved integer to ``dst``."""
    from repro.core.speclang.ast import Name, Number

    if isinstance(primary, Number):
        return primary.value, None
    if isinstance(primary, Name):
        name = primary.name
        value = gen.machine.resolve_constant(name)
        if value is None:
            info = gen.sdts.symtab.lookup(name)
            value = info.numeric_value if info is not None else None
        if value is None:
            msg = (
                f"{tmpl.op}: constant {name!r} has no value in the "
                f"spec or machine description"
            )

            def missing(out, ind, dst, msg=msg):
                out(f"{ind}raise CodeGenError({msg!r})")

            return None, missing
        return value, None
    key = (primary.name, primary.index)
    slot = env.get(key)
    unbound = f"{tmpl.op}: {primary} is unbound in {prod}"
    head = f"{tmpl.op}: {primary} resolves to "

    def int_ref(out, ind, dst, slot=slot, unbound=unbound, head=head):
        if slot is None:
            out(f"{ind}raise CodeGenError({unbound!r})")
            return
        v, tv = slot
        # Allocation results carry their class statically: emit the one
        # branch the dynamic dispatch below would have taken.
        if tv == "RegValue":
            out(f"{ind}{dst} = {v}.reg")
            return
        if tv == "PairValue":
            out(f"{ind}{dst} = {v}.even")
            return
        if tv == "CCValue":
            out(f"{ind}raise CodeGenError(")
            out(f"{ind}    {head!r} + str({v}) + ', not a number')")
            return
        out(f"{ind}if {tv} is AttrValue:")
        out(f"{ind}    {dst} = {v}.value")
        out(f"{ind}elif {tv} is RegValue:")
        out(f"{ind}    {dst} = {v}.reg")
        out(f"{ind}elif {tv} is PairValue:")
        out(f"{ind}    {dst} = {v}.even")
        out(f"{ind}elif {v} is None:")
        out(f"{ind}    raise CodeGenError({unbound!r})")
        out(f"{ind}else:")
        out(f"{ind}    raise CodeGenError(")
        out(f"{ind}        {head!r} + str({v}) + ', not a number')")

    return None, int_ref


def _inline_reg(primary, tmpl, prod, gen, env):
    """Mirror of ``_compile_reg``: register-number scalars (address
    index/base parts) accept attributes first, then registers."""
    from repro.core.speclang.ast import Ref

    if not isinstance(primary, Ref):
        return _inline_int(primary, tmpl, prod, gen, env)
    key = (primary.name, primary.index)
    slot = env.get(key)
    unbound = f"{tmpl.op}: {primary} is unbound in {prod}"
    head = f"{tmpl.op}: {primary} is bound to "

    def reg_ref(out, ind, dst, slot=slot, unbound=unbound, head=head):
        if slot is None:
            out(f"{ind}raise CodeGenError({unbound!r})")
            return
        v, tv = slot
        if tv == "RegValue":
            out(f"{ind}{dst} = {v}.reg")
            return
        if tv == "PairValue":
            out(f"{ind}{dst} = {v}.even")
            return
        if tv == "CCValue":
            out(f"{ind}raise CodeGenError(")
            out(f"{ind}    {head!r} + str({v}) + ', not a register')")
            return
        out(f"{ind}if {tv} is AttrValue:")
        out(f"{ind}    {dst} = {v}.value")
        out(f"{ind}elif {tv} is PairValue:")
        out(f"{ind}    {dst} = {v}.even")
        out(f"{ind}elif {tv} is RegValue:")
        out(f"{ind}    {dst} = {v}.reg")
        out(f"{ind}elif {v} is None:")
        out(f"{ind}    raise CodeGenError({unbound!r})")
        out(f"{ind}else:")
        out(f"{ind}    raise CodeGenError(")
        out(f"{ind}        {head!r} + str({v}) + ', not a register')")

    return None, reg_ref


def _inline_operand(t, j, operand, tmpl, prod, gen, env, konsts):
    """Mirror of ``_compile_operand``.

    Returns ``(writer, expr)``: ``writer(out, ind)`` emits any prep
    statements (or is ``None``), ``expr`` is the operand expression for
    the ``Instr`` tuple.  Fully-constant operands become shared
    factory-level instances in ``konsts``, matching the closure lane's
    prebuilt ``R``/``Imm``/``Mem`` sharing.
    """
    from repro.core.speclang.ast import Ref

    def scalar(kind, primary, dst):
        compile_ = _inline_reg if kind == "reg" else _inline_int
        const, wr = compile_(primary, tmpl, prod, gen, env)
        if wr is None:
            return repr(const), None
        return dst, wr

    if operand.is_address:
        d_expr, d_wr = scalar("int", operand.base, f"d{t}_{j}")
        if operand.base_reg is None:
            # dsp(b): single parenthesized part is the base register.
            b_expr, b_wr = scalar("reg", operand.index, f"b{t}_{j}")
            x_expr, x_wr = "0", None
        else:
            x_expr, x_wr = scalar("reg", operand.index, f"x{t}_{j}")
            b_expr, b_wr = scalar("reg", operand.base_reg, f"b{t}_{j}")
        if d_wr is None and x_wr is None and b_wr is None:
            name = f"K{t}_{j}"
            konsts.append(
                f"    {name} = Mem({d_expr}, {x_expr}, {b_expr})"
            )
            return None, name

        def mem_writer(out, ind, parts=(
            (d_expr, d_wr), (x_expr, x_wr), (b_expr, b_wr),
        )):
            for expr, wr in parts:
                if wr is not None:
                    wr(out, ind, expr)

        return mem_writer, f"Mem({d_expr}, {x_expr}, {b_expr})"

    base = operand.base
    if isinstance(base, Ref):
        key = (base.name, base.index)
        slot = env.get(key)
        unbound = f"{tmpl.op}: {base} is unbound in {prod}"
        head = f"{tmpl.op}: operand {base} is bound to "
        dst = f"o{t}_{j}"

        def ref_writer(
            out, ind, slot=slot, unbound=unbound, head=head, dst=dst
        ):
            if slot is None:
                out(f"{ind}raise CodeGenError({unbound!r})")
                return
            v, tv = slot
            if tv in ("RegValue", "PairValue"):
                field = "reg" if tv == "RegValue" else "even"
                out(f"{ind}n_ = {v}.{field}")
                out(f"{ind}{dst} = (")
                out(f"{ind}    R_INTERNED[n_] if 0 <= n_ < _NRT else R(n_))")
                return
            if tv == "CCValue":
                out(f"{ind}raise CodeGenError({head!r} + str({v}))")
                return
            out(f"{ind}if {tv} is RegValue:")
            out(f"{ind}    n_ = {v}.reg")
            out(f"{ind}    {dst} = (")
            out(f"{ind}        R_INTERNED[n_] if 0 <= n_ < _NRT else R(n_))")
            out(f"{ind}elif {tv} is PairValue:")
            out(f"{ind}    n_ = {v}.even")
            out(f"{ind}    {dst} = (")
            out(f"{ind}        R_INTERNED[n_] if 0 <= n_ < _NRT else R(n_))")
            out(f"{ind}elif {tv} is AttrValue:")
            out(f"{ind}    {dst} = Imm({v}.value)")
            out(f"{ind}elif {v} is None:")
            out(f"{ind}    raise CodeGenError({unbound!r})")
            out(f"{ind}else:")
            out(f"{ind}    raise CodeGenError({head!r} + str({v}))")

        return ref_writer, dst
    v_expr, v_wr = scalar("int", base, f"s{t}_{j}")
    if v_wr is None:
        name = f"K{t}_{j}"
        konsts.append(f"    {name} = Imm({v_expr})")
        return None, name

    def imm_writer(out, ind, expr=v_expr, wr=v_wr):
        wr(out, ind, expr)

    return imm_writer, f"Imm({v_expr})"


def _ctx_int(primary, tmpl, prod, gen, pvar, tvar, env):
    """Mirror of ``_compile_int`` for context reducers.  Operands must
    resolve from ``ctx.bindings`` at execution time -- handlers rebind
    keys and the allocator's patch hook rewrites them -- so only the
    dictionary key, the error strings and the dispatch order are baked.
    ``pvar``/``tvar`` name factory locals holding the primary/template
    AST objects the spill-reload slow path needs.  ``env`` carries keys
    whose value still provably sits in a typed local (this reduction's
    own allocations, before any handler could rebind them): those skip
    the dictionary entirely via the static fast-lane writer."""
    from repro.core.speclang.ast import Ref

    if not isinstance(primary, Ref):
        # Number / named-constant resolution has no binding to read;
        # the env-based helper never touches env for these.
        return _inline_int(primary, tmpl, prod, gen, {})
    if env.get((primary.name, primary.index)) is not None:
        return _inline_int(primary, tmpl, prod, gen, env)
    key = (primary.name, primary.index)
    unbound = f"{tmpl.op}: {primary} is unbound in {prod}"
    head = f"{tmpl.op}: {primary} resolves to "

    def int_ref(out, ind, dst, key=key, unbound=unbound, head=head):
        out(f"{ind}{dst} = _b.get({key!r})")
        out(f"{ind}if {dst} is None:")
        out(f"{ind}    raise CodeGenError({unbound!r})")
        out(f"{ind}if type({dst}) is SpilledValue:")
        out(f"{ind}    {dst} = ctx.reg_binding({pvar}, {tvar})")
        out(f"{ind}_ty = type({dst})")
        out(f"{ind}if _ty is AttrValue:")
        out(f"{ind}    {dst} = {dst}.value")
        out(f"{ind}elif _ty is RegValue:")
        out(f"{ind}    {dst} = {dst}.reg")
        out(f"{ind}elif _ty is PairValue:")
        out(f"{ind}    {dst} = {dst}.even")
        out(f"{ind}else:")
        out(f"{ind}    raise CodeGenError(")
        out(f"{ind}        {head!r} + str({dst}) + ', not a number')")

    return None, int_ref


def _ctx_reg(primary, tmpl, prod, gen, pvar, tvar, env):
    """Mirror of ``_compile_reg`` for context reducers: attributes win
    before the spill check, then pair/register."""
    from repro.core.speclang.ast import Ref

    if not isinstance(primary, Ref):
        return _ctx_int(primary, tmpl, prod, gen, pvar, tvar, env)
    if env.get((primary.name, primary.index)) is not None:
        return _inline_reg(primary, tmpl, prod, gen, env)
    key = (primary.name, primary.index)
    unbound = f"{tmpl.op}: {primary} is unbound in {prod}"
    head = f"{tmpl.op}: {primary} is bound to "

    def reg_ref(out, ind, dst, key=key, unbound=unbound, head=head):
        out(f"{ind}{dst} = _b.get({key!r})")
        out(f"{ind}if {dst} is None:")
        out(f"{ind}    raise CodeGenError({unbound!r})")
        out(f"{ind}_ty = type({dst})")
        out(f"{ind}if _ty is AttrValue:")
        out(f"{ind}    {dst} = {dst}.value")
        out(f"{ind}else:")
        out(f"{ind}    if _ty is SpilledValue:")
        out(f"{ind}        {dst} = ctx._reload({pvar}, {dst})")
        out(f"{ind}        _ty = type({dst})")
        out(f"{ind}    if _ty is PairValue:")
        out(f"{ind}        {dst} = {dst}.even")
        out(f"{ind}    elif _ty is RegValue:")
        out(f"{ind}        {dst} = {dst}.reg")
        out(f"{ind}    else:")
        out(f"{ind}        raise CodeGenError(")
        out(f"{ind}            {head!r} + str({dst}) + ', not a register')")

    return None, reg_ref


def _ctx_operand(t, j, operand, tmpl, prod, gen, factory, konsts, env):
    """Mirror of ``_compile_operand`` for context reducers.

    Returns ``(writer, expr)`` like :func:`_inline_operand`, but the
    emitted statements read ``ctx.bindings`` (hoisted as ``_b``) so
    handler rebinding and reserve-shuffle patching stay visible --
    except for keys in ``env``, this reduction's own typed allocation
    locals, which resolve statically.  ``factory`` collects bind-time
    lines recovering the primary AST objects the spill-reload paths
    pass back to the context."""
    from repro.core.speclang.ast import Ref

    tvar = f"_xt{t}"

    def scalar(kind, primary, path, dst, pvar):
        compile_ = _ctx_reg if kind == "reg" else _ctx_int
        const, wr = compile_(primary, tmpl, prod, gen, pvar, tvar, env)
        if wr is None:
            return repr(const), None
        if isinstance(primary, Ref) and env.get(
            (primary.name, primary.index)
        ) is None:
            factory.append(f"    {pvar} = {path}")
        return dst, wr

    if operand.is_address:
        opath = f"{tvar}.operands[{j}]"
        d_expr, d_wr = scalar(
            "int", operand.base, f"{opath}.base", f"d{t}_{j}", f"_q{t}_{j}d"
        )
        if operand.base_reg is None:
            # dsp(b): single parenthesized part is the base register.
            b_expr, b_wr = scalar(
                "reg", operand.index, f"{opath}.index",
                f"b{t}_{j}", f"_q{t}_{j}b",
            )
            x_expr, x_wr = "0", None
        else:
            x_expr, x_wr = scalar(
                "reg", operand.index, f"{opath}.index",
                f"x{t}_{j}", f"_q{t}_{j}x",
            )
            b_expr, b_wr = scalar(
                "reg", operand.base_reg, f"{opath}.base_reg",
                f"b{t}_{j}", f"_q{t}_{j}b",
            )
        if d_wr is None and x_wr is None and b_wr is None:
            name = f"K{t}_{j}"
            konsts.append(f"    {name} = Mem({d_expr}, {x_expr}, {b_expr})")
            return None, name

        def mem_writer(out, ind, parts=(
            (d_expr, d_wr), (x_expr, x_wr), (b_expr, b_wr),
        )):
            for expr, wr in parts:
                if wr is not None:
                    wr(out, ind, expr)

        return mem_writer, f"Mem({d_expr}, {x_expr}, {b_expr})"

    base = operand.base
    if isinstance(base, Ref):
        key = (base.name, base.index)
        if env.get(key) is not None:
            # Typed allocation local: the whole operand resolves through
            # the fast-lane static writer (no bindings read).
            return _inline_operand(t, j, operand, tmpl, prod, gen, env, konsts)
        pvar = f"_q{t}_{j}"
        factory.append(f"    {pvar} = {tvar}.operands[{j}].base")
        unbound = f"{tmpl.op}: {base} is unbound in {prod}"
        head = f"{tmpl.op}: operand {base} is bound to "
        dst = f"o{t}_{j}"

        def ref_writer(
            out, ind, key=key, unbound=unbound, head=head,
            dst=dst, pvar=pvar,
        ):
            out(f"{ind}{dst} = _b.get({key!r})")
            out(f"{ind}if {dst} is None:")
            out(f"{ind}    raise CodeGenError({unbound!r})")
            out(f"{ind}_ty = type({dst})")
            out(f"{ind}if _ty is SpilledValue:")
            out(f"{ind}    {dst} = ctx._reload({pvar}, {dst})")
            out(f"{ind}    _ty = type({dst})")
            out(f"{ind}if _ty is RegValue:")
            out(f"{ind}    n_ = {dst}.reg")
            out(f"{ind}    {dst} = (")
            out(f"{ind}        R_INTERNED[n_] if 0 <= n_ < _NRT else R(n_))")
            out(f"{ind}elif _ty is PairValue:")
            out(f"{ind}    n_ = {dst}.even")
            out(f"{ind}    {dst} = (")
            out(f"{ind}        R_INTERNED[n_] if 0 <= n_ < _NRT else R(n_))")
            out(f"{ind}elif _ty is AttrValue:")
            out(f"{ind}    {dst} = Imm({dst}.value)")
            out(f"{ind}else:")
            out(f"{ind}    raise CodeGenError({head!r} + str({dst}))")

        return ref_writer, dst
    v_expr, v_wr = scalar(
        "int", base, f"{tvar}.operands[{j}].base", f"s{t}_{j}", f"_q{t}_{j}"
    )
    if v_wr is None:
        name = f"K{t}_{j}"
        konsts.append(f"    {name} = Imm({v_expr})")
        return None, name

    def ctx_imm_writer(out, ind, expr=v_expr, wr=v_wr):
        wr(out, ind, expr)

    return ctx_imm_writer, f"Imm({v_expr})"


def _bind_handlers(plan, steps, out) -> None:
    """Factory locals ``h{i}``/``t{i}``: handler and template of each
    semantic-operator step, for the reducer to call."""
    for kind, i, _ in steps:
        if kind == "handler":
            out(f"    h{i} = plan.exec_steps[{i}][0]")
            out(f"    t{i} = plan.exec_steps[{i}][1]")


# ---- inline register-allocator operations -----------------------------------
#
# The emitters below bake RegisterAllocator's pin/acquire/release/
# allocate bodies (repro.core.codegen.registers) into the generated
# reducers as straight-line field operations on the shared RegState
# pool, eliminating the method-call and class-resolution overhead the
# generic reducer pays per operation.  The slow paths stay slow:
# eviction (no free register), unknown register classes, and non-LRU
# strategies call the real allocator.
#
# Reducer-local names bound once per reduction: ``pget`` =
# ``alloc._pool_by_nt.get``, ``epoch`` = ``alloc._pin_epoch``, ``onf`` =
# ``alloc.on_free``, ``lru`` = ``alloc.strategy == "lru"``.


def _pin_dyn(out, ind: str, v: str, tv: str, pool_var=None) -> None:
    """Inline ``alloc.pin(v)`` for a value of dynamic register type.

    With ``pool_var`` the pool lookup is stored into that local so the
    matching release (same value, same type branch) can reuse it: the
    nt-to-pool mapping is fixed for the allocator's lifetime and the
    value is immutable, so the lookup is pure."""
    p = pool_var or "_p"
    out(f"{ind}if {tv} is RegValue:")
    out(f"{ind}    {p} = pget({v}.cls)")
    out(f"{ind}    if {p} is None:")
    out(f"{ind}        alloc.pin({v})")
    out(f"{ind}    else:")
    out(f"{ind}        {p}[{v}.reg].pin_epoch = epoch")
    out(f"{ind}elif {tv} is PairValue:")
    out(f"{ind}    {p} = pget({v}.cls)")
    out(f"{ind}    if {p} is None:")
    out(f"{ind}        alloc.pin({v})")
    out(f"{ind}    else:")
    out(f"{ind}        _n = {v}.even")
    out(f"{ind}        {p}[_n].pin_epoch = epoch")
    out(f"{ind}        {p}[_n + 1].pin_epoch = epoch")


def _acquire_dyn(out, ind: str, v: str, tv: str) -> None:
    """Inline ``alloc.acquire(v)`` (count=1) for a dynamic-type value."""
    out(f"{ind}if {tv} is RegValue:")
    out(f"{ind}    _p = pget({v}.cls)")
    out(f"{ind}    if _p is None:")
    out(f"{ind}        alloc.acquire({v})")
    out(f"{ind}    else:")
    out(f"{ind}        _st = _p[{v}.reg]")
    out(f"{ind}        _st.busy = True")
    out(f"{ind}        _st.use_count += 1")
    out(f"{ind}elif {tv} is PairValue:")
    out(f"{ind}    _p = pget({v}.cls)")
    out(f"{ind}    if _p is None:")
    out(f"{ind}        alloc.acquire({v})")
    out(f"{ind}    else:")
    out(f"{ind}        _st = _p[{v}.even]")
    out(f"{ind}        _st.busy = True")
    out(f"{ind}        _st.use_count += 1")
    out(f"{ind}        _st = _p[{v}.odd]")
    out(f"{ind}        _st.busy = True")
    out(f"{ind}        _st.use_count += 1")


def _dec(out, ind: str, pool: str, n: str) -> None:
    """One register's release decrement (count=1), mirroring
    RegisterAllocator.release's per-register body exactly."""
    out(f"{ind}_st = {pool}[{n}]")
    out(f"{ind}_wb = _st.busy")
    out(f"{ind}_st.use_count -= 1")
    out(f"{ind}if _st.use_count <= 0:")
    out(f"{ind}    _st.busy = False")
    out(f"{ind}    _st.use_count = 0")
    out(f"{ind}    _st.cse = None")
    out(f"{ind}    if _wb and onf is not None:")
    out(f"{ind}        onf({n})")


def _release_dyn(
    out, ind: str, v: str, tv: str, guard: Optional[str] = None,
    pre: Optional[List[str]] = None, pool_var=None,
) -> None:
    """Inline ``alloc.release(v)`` for a dynamic-type value.

    ``guard`` is an optional extra condition (the epilogue's
    suppression check) applied inside each register-type branch, so
    non-register values never evaluate it -- exactly like the
    generic epilogue's check order.  ``pre`` lines (computing the
    guard's inputs) are emitted inside each branch just before it.
    ``pool_var`` reuses a pool local stored by the matching
    ``_pin_dyn`` (valid because the nt-to-pool mapping and the value
    are both immutable)."""
    gind = ind + "    "
    bind_ = gind + ("    " if guard else "")
    out(f"{ind}if {tv} is RegValue:")
    for line in pre or ():
        out(f"{gind}{line}")
    if guard:
        out(f"{gind}if {guard}:")
    if pool_var is None:
        out(f"{bind_}_p = pget({v}.cls)")
        p = "_p"
    else:
        p = pool_var
    out(f"{bind_}if {p} is None:")
    out(f"{bind_}    alloc.release({v})")
    out(f"{bind_}else:")
    out(f"{bind_}    _n = {v}.reg")
    _dec(out, bind_ + "    ", p, "_n")
    out(f"{ind}elif {tv} is PairValue:")
    for line in pre or ():
        out(f"{gind}{line}")
    if guard:
        out(f"{gind}if {guard}:")
    if pool_var is None:
        out(f"{bind_}_p = pget({v}.cls)")
    out(f"{bind_}if {p} is None:")
    out(f"{bind_}    alloc.release({v})")
    out(f"{bind_}else:")
    out(f"{bind_}    _n = {v}.even")
    _dec(out, bind_ + "    ", p, "_n")
    out(f"{bind_}    _n = {v}.odd")
    _dec(out, bind_ + "    ", p, "_n")


def _alloc_kind(gen, name: str):
    """(kind, allocatable) of an alloc step's class at emit time:
    ``("gpr", regs)``, ``("pair", evens)``, ``("cc", None)``, or
    ``(None, None)`` when the machine doesn't name the class (the
    generic call path is emitted and nothing is baked)."""
    from repro.core.machine import ClassKind

    classes = getattr(gen.machine, "classes", None)
    cls = classes.get(name) if classes is not None else None
    if cls is None:
        return None, None
    if cls.kind is ClassKind.GPR:
        return "gpr", tuple(cls.allocatable)
    if cls.kind is ClassKind.PAIR:
        return "pair", tuple(cls.allocatable)
    if cls.kind is ClassKind.CC:
        return "cc", None
    return None, None


def _alloc_step_inline(
    out, ind: str, target: str, nt: str, kind, regs, is_using: bool,
    number=None,
) -> None:
    """Inline one ``using``/``need`` allocation into ``target``.

    GPR ``using`` gets the LRU free-scan with the allocatable set baked
    in; eviction (no free register) and non-LRU strategies fall back to
    the real ``allocate``.  The fresh value is pinned in place (a bare
    ``pin_epoch`` store -- the pool and value type are static here).
    """
    pool = f"_p_{target}"
    if kind == "cc":
        out(f"{ind}{target} = CCValue()")
        return
    if kind == "gpr" and is_using:
        out(f"{ind}{pool} = pget({nt!r})")
        out(f"{ind}if lru:")
        out(f"{ind}    _best = None")
        out(f"{ind}    for _n in {regs!r}:")
        out(f"{ind}        _st = {pool}[_n]")
        if regs == tuple(sorted(regs)):
            # Ascending scan order makes the (stamp, number) tie-break
            # implicit: equal stamps keep the earlier (smaller) number.
            out(f"{ind}        if not _st.busy and (_best is None or "
                f"_st.stamp < _bs):")
            out(f"{ind}            _best = _st")
            out(f"{ind}            _bs = _st.stamp")
        else:
            out(f"{ind}        if not _st.busy and (_best is None or "
                f"_st.stamp < _bs or")
            out(f"{ind}                             (_st.stamp == _bs and "
                f"_n < _bn)):")
            out(f"{ind}            _best = _st")
            out(f"{ind}            _bs = _st.stamp")
            out(f"{ind}            _bn = _n")
        out(f"{ind}    if _best is None:")
        out(f"{ind}        {target} = alloc.allocate({nt!r})")
        out(f"{ind}        {pool}[{target}.reg].pin_epoch = epoch")
        out(f"{ind}    else:")
        out(f"{ind}        _best.busy = True")
        out(f"{ind}        _best.use_count = 1")
        out(f"{ind}        _best.cse = None")
        out(f"{ind}        _best.stamp = alloc.global_index")
        out(f"{ind}        _best.pin_epoch = epoch")
        out(f"{ind}        {target} = RegValue(_best.number, {nt!r})")
        out(f"{ind}else:")
        out(f"{ind}    {target} = alloc.allocate({nt!r})")
        out(f"{ind}    {pool}[{target}.reg].pin_epoch = epoch")
        return
    if kind == "gpr" and not is_using:
        out(f"{ind}{target} = alloc.reserve({nt!r}, {number!r})")
        out(f"{ind}pget({nt!r})[{target}.reg].pin_epoch = epoch")
        return
    if kind == "pair" and is_using and regs == tuple(sorted(regs)):
        # Pair selection is stamp-keyed regardless of strategy (mirrors
        # _best_free_pair); ascending evens make the tie-break implicit,
        # so the inline scan is only valid for sorted register sets.
        out(f"{ind}{pool} = pget({nt!r})")
        out(f"{ind}_best = None")
        out(f"{ind}for _n in {regs!r}:")
        out(f"{ind}    _s0 = {pool}[_n]")
        out(f"{ind}    if not _s0.busy:")
        out(f"{ind}        _s1 = {pool}[_n + 1]")
        out(f"{ind}        if not _s1.busy:")
        out(f"{ind}            _st = (_s0.stamp if _s0.stamp > _s1.stamp "
            f"else _s1.stamp)")
        out(f"{ind}            if _best is None or _st < _bs:")
        out(f"{ind}                _best = _n")
        out(f"{ind}                _bs = _st")
        out(f"{ind}if _best is None:")
        out(f"{ind}    {target} = alloc.allocate({nt!r})")
        out(f"{ind}    _n = {target}.even")
        out(f"{ind}    {pool}[_n].pin_epoch = epoch")
        out(f"{ind}    {pool}[_n + 1].pin_epoch = epoch")
        out(f"{ind}else:")
        out(f"{ind}    _gi = alloc.global_index")
        out(f"{ind}    _s0 = {pool}[_best]")
        out(f"{ind}    _s0.busy = True")
        out(f"{ind}    _s0.use_count = 1")
        out(f"{ind}    _s0.cse = None")
        out(f"{ind}    _s0.stamp = _gi")
        out(f"{ind}    _s0.pin_epoch = epoch")
        out(f"{ind}    _s1 = {pool}[_best + 1]")
        out(f"{ind}    _s1.busy = True")
        out(f"{ind}    _s1.use_count = 1")
        out(f"{ind}    _s1.cse = None")
        out(f"{ind}    _s1.stamp = _gi")
        out(f"{ind}    _s1.pin_epoch = epoch")
        out(f"{ind}    {target} = PairValue(_best, {nt!r})")
        return
    # Unknown class: generic call path, dynamic pin.
    if is_using:
        out(f"{ind}{target} = alloc.allocate({nt!r})")
    else:
        out(f"{ind}{target} = alloc.reserve({nt!r}, {number!r})")
    out(f"{ind}_ty = type({target})")
    out(f"{ind}if _ty is RegValue or _ty is PairValue:")
    out(f"{ind}    alloc.pin({target})")


def _emit_fast_reducer(plan, gen, steps) -> List[str]:
    """The no-context straight-line reducer for a production without
    semantic-operator handlers (allocation steps allowed).

    RHS values live in locals; pins, ``using``/``need`` allocation,
    inline operand resolution, emission, and the LHS/release epilogue
    are all unrolled.  Any incoming ``SpilledValue`` falls back to the
    generic ``_reduce`` (reload needs the context machinery).
    """
    prod = plan.prod
    n = plan.nrhs
    is_lambda = plan.lambda_token is not None
    nalloc = len(plan.alloc_steps)

    # Binding environment: RHS positions first (last occurrence wins,
    # matching the bindings-dict build), then allocation results
    # (written over the base bindings in step order).  An allocation
    # result's value type is decided by its register class, so the env
    # records the class name itself ("RegValue"/"PairValue"/"CCValue")
    # and the operand writers emit just the matching branch.
    akinds = [_alloc_kind(gen, ref.name) for _, ref in plan.alloc_steps]
    _STATIC_TV = {"gpr": "RegValue", "pair": "PairValue", "cc": "CCValue"}
    env: Dict[Tuple[str, int], Tuple[str, str]] = {}
    for key, pos in plan.binding_refs:
        env[key] = (f"v{pos}", f"tv{pos}")
    for k, (is_using, ref) in enumerate(plan.alloc_steps):
        kind, _ = akinds[k]
        env[(ref.name, ref.index)] = (
            f"a{k}", _STATIC_TV.get(kind, f"ta{k}")
        )
    alloc_vars = {f"a{k}": k for k in range(nalloc)}
    any_gpr_scan = any(
        kind == "gpr" and is_using
        for (kind, _), (is_using, _) in zip(akinds, plan.alloc_steps)
    )

    w: List[str] = []
    out = w.append
    out("def _mk(gen, plan):")
    if is_lambda:
        out("    lam_token = plan.lambda_token")
        out("    lam_goto = (lam_token.code, lam_token.symbol, "
            "lam_token.sem)")
    if n:
        out("    _slow = gen._reduce")

    # Inline template bodies are generated into `body` first so the
    # constant-operand factory lines land before `def _reduce`.
    konsts: List[str] = []
    body: List[str] = []
    bout = body.append
    ind = "        "
    emitted = False
    # exec step i's template is the i-th non-using/need entry of the
    # production's template list (mirrors the _ProdPlan build).
    exec_tmpls = [
        t for t in prod.templates if t.op not in ("using", "need")
    ]
    for kind, i, op in steps:
        assert kind == "emit"
        tmpl = exec_tmpls[i]
        if not emitted:
            bout(f"{ind}buffer = run.buffer")
            bout(f"{ind}items = buffer.items")
            bout(f"{ind}origins = buffer.origins")
            emitted = True
        exprs: List[str] = []
        for j, operand in enumerate(tmpl.operands):
            writer, expr = _inline_operand(
                i, j, operand, tmpl, prod, gen, env, konsts
            )
            if writer is not None:
                writer(bout, ind)
            exprs.append(expr)
        tup = ", ".join(exprs) + ("," if len(exprs) == 1 else "")
        tag = f"spec line {tmpl.line}: {tmpl}"
        bout(f"{ind}items.append(Instr({tmpl.op!r}, ({tup}), "
             f"{tmpl.comment!r}))")
        bout(f"{ind}origins[len(items) - 1] = {tag!r}")

    # Epilogue: LHS acquire + RHS/scratch release, then the goto tuple.
    # When the LHS *is* one of this reduction's fresh allocations, the
    # acquire/release pair on it is statically a net no-op (use_count
    # goes 1 -> 2 -> 1, never reaching 0, no stamp or cse changes) and
    # both calls are elided.
    if is_lambda:
        _fast_releases(plan, akinds, bout, ind, elide=None,
                       pool_cached=nalloc > 0)
        bout(f"{ind}return lam_goto")
    else:
        slot = env.get(plan.lhs_key)
        lhs_msg = f"LHS {prod.lhs_ref} unbound at end of {prod}"
        if slot is None:
            bout(f"{ind}raise CodeGenError({lhs_msg!r})")
        else:
            v, tv = slot
            elide = alloc_vars.get(v)
            if elide is None:
                bout(f"{ind}if {v} is None:")
                bout(f"{ind}    raise CodeGenError({lhs_msg!r})")
                _acquire_dyn(bout, ind, v, tv)
            _fast_releases(plan, akinds, bout, ind, elide=elide,
                           pool_cached=nalloc > 0)
            bout(f"{ind}return ({plan.lhs_code}, "
                 f"{plan.lhs_symbol!r}, {v})")

    w.extend(konsts)
    out("    def _reduce(run, stack, front):")
    for pos in range(n):
        out(f"        v{pos} = stack[{pos - n}][2]")
        out(f"        tv{pos} = type(v{pos})")
    # SpilledValue operands need the context's reload machinery: the
    # generic _reduce takes the whole reduction.
    if n:
        guards = " or ".join(f"tv{pos} is SpilledValue" for pos in range(n))
        out(f"        if {guards}:")
        out("            return _slow(run, front, plan)")
        out(f"        del stack[-{n}:]")
    out("        alloc = run.alloc")
    out("        alloc.global_index += 1")
    if n or nalloc:
        out("        pget = alloc._pool_by_nt.get")
        out("        onf = alloc.on_free")
    if nalloc:
        out("        epoch = alloc._pin_epoch")
        if any_gpr_scan:
            out('        lru = alloc.strategy == "lru"')
        # Pins + allocation (paper 4.1: all registers required by the
        # template sequence are allocated at one time); unpin_all is
        # epoch-based, so the no-pin fast path below skips it.
        out("        try:")
        pind = "            "
        for pos in range(n):
            _pin_dyn(out, pind, f"v{pos}", f"tv{pos}",
                     pool_var=f"_pv{pos}")
        for k, (is_using, ref) in enumerate(plan.alloc_steps):
            kind, regs = akinds[k]
            _alloc_step_inline(
                out, pind, f"a{k}", ref.name, kind, regs, is_using,
                number=ref.index,
            )
            if kind is None:
                # Unknown class kind: the release epilogue needs the
                # runtime type.  Known kinds are static in the env.
                out(f"{pind}ta{k} = type(a{k})")
        w.extend("    " + line for line in body)
        out("        finally:")
        out("            alloc._pin_epoch += 1")
    else:
        w.extend(body)
    out("    return _reduce")
    out("")
    out("")
    return w


def _fast_releases(plan, akinds, out, ind: str, elide,
                   pool_cached: bool = False) -> None:
    """Inline RHS-operand + scratch release (paper 4.1 use counting);
    no suppression check -- only handlers can suppress a release.
    ``elide`` names the alloc step whose release the epilogue already
    cancelled against the LHS acquire.  ``pool_cached`` reuses the
    ``_pv{pos}`` pool locals stored by the pin preamble (only emitted
    when the production has alloc steps)."""
    for pos in range(plan.nrhs):
        _release_dyn(out, ind, f"v{pos}", f"tv{pos}",
                     pool_var=f"_pv{pos}" if pool_cached else None)
    for k, (kind, _) in enumerate(akinds):
        if k == elide or kind == "cc":
            continue
        pool = f"_p_a{k}"
        if kind == "gpr":
            is_using = plan.alloc_steps[k][0]
            if not is_using:
                # reserve pinned through pget directly; no pool local.
                out(f"{ind}{pool} = pget(a{k}.cls)")
            out(f"{ind}_n = a{k}.reg")
            _dec(out, ind, pool, "_n")
        elif kind == "pair":
            out(f"{ind}_n = a{k}.even")
            _dec(out, ind, pool, "_n")
            out(f"{ind}_n = a{k}.odd")
            _dec(out, ind, pool, "_n")
        else:
            out(f"{ind}if ta{k} is RegValue or ta{k} is PairValue:")
            out(f"{ind}    alloc.release(a{k})")


def _push_half_inline(out, i: int, keep: str, tmpl, prod,
                      static=None) -> None:
    """Inline ``semantic_ops._push_half`` (PUSH_ODD / PUSH_EVEN) with
    the allocator's ``split_pair`` body unrolled: free the dropped
    half, type-convert the kept half to the underlying GPR class,
    suppress the pair's release, and prefix the converted register for
    re-parse.  Messages and the binding key are baked from the
    emission-time template (only the stock handler is inlined).  When the
    operand is a this-reduction allocation local (``static``), the
    binding fetch / reload / type dispatch collapse: the local is a
    pinned PairValue by construction."""
    dropped = "odd" if keep == "even" else "even"
    if static is not None:
        out(f"            _hv = {static}")
    else:
        ref = tmpl.operands[0].base
        nr_head = f"{tmpl.op}: {ref} is bound to "
        notpair = (
            f"{tmpl.op}: {tmpl.operands[0]} is not an even/odd pair"
        )
        _handler_ref_prelude(out, i, tmpl, prod)
        out("            if _ty is not PairValue:")
        out("                if _ty is RegValue:")
        out(f"                    raise CodeGenError({notpair!r})")
        out(f"                raise CodeGenError({nr_head!r} + str(_hv) "
            "+ ', not a register')")
    out("            _info = alloc._split_info_by_nt.get(_hv.cls)")
    out("            if _info is None:")
    out(f"                _r = alloc.split_pair(_hv, {keep!r})")
    out("            else:")
    out("                _gnt, _pool = _info")
    out(f"                _dn = _hv.{dropped}")
    out("                _ds = _pool[_dn]")
    out("                _wb = _ds.busy")
    out("                _ds.busy = False")
    out("                _ds.use_count = 0")
    out("                _ds.cse = None")
    out("                if _wb and onf is not None:")
    out("                    onf(_dn)")
    out(f"                _kn = _hv.{keep}")
    out("                _ks = _pool[_kn]")
    out("                _ks.busy = True")
    out("                _ks.use_count = 1")
    out("                _ks.stamp = alloc.global_index")
    out("                _r = RegValue(_kn, _gnt)")
    out("            ctx._suppressed.append(_hv)")
    out("            ctx.allocated = "
        "[a for a in ctx.allocated if a is not _hv]")
    out("            ctx.prefix.append("
        "IFToken(_r.cls, None, _r, cget(_r.cls, -1)))")


def _handler_ref_prelude(out, i: int, tmpl, prod) -> None:
    """Shared preamble for inlined single-reference handlers: fetch the
    baked binding into ``_hv``/``_ty`` and reload a spilled value,
    mirroring ``EmissionContext.binding`` + the ``reg_binding`` reload
    (messages baked from the emission-time template)."""
    ref = tmpl.operands[0].base
    key = (ref.name, ref.index)
    unbound = f"{tmpl.op}: {ref} is unbound in {prod}"
    out(f"            _hv = _b.get({key!r})")
    out("            if _hv is None:")
    out(f"                raise CodeGenError({unbound!r})")
    out("            _ty = type(_hv)")
    out("            if _ty is SpilledValue:")
    out(f"                _hv = ctx._reload(_h{i}, _hv)")
    out("                _ty = type(_hv)")


def _modifies_inline(out, i: int, tmpl, prod, static=None) -> None:
    """Inline ``semantic_ops.h_modifies``'s hot path: a plain register
    with no CSE binding and no live stack copies just gets its LRU
    stamp refreshed.  Every other case (pair destinations, CSE flush,
    relocation, unknown pools) delegates to the stock handler *before*
    any state is touched, so the delegate replays the decision from
    scratch and behaves identically.  With a ``static`` hint --
    ``(local, pool_local)`` for a this-reduction GPR allocation -- the
    binding fetch, type dispatch, and pool lookup collapse to direct
    local reads."""
    if static is not None:
        var, pool = static
        out(f"            _hv = {var}")
        out(f"            _st = {pool}[{var}.reg]")
        out("            if (_st.cse is not None or")
        out("                    _st.use_count - values.count(_hv) > 0):")
        out(f"                h{i}(ctx, t{i})")
        out("            else:")
        out("                _st.stamp = alloc.global_index")
        return
    ref = tmpl.operands[0].base
    nr_head = f"{tmpl.op}: {ref} is bound to "
    _handler_ref_prelude(out, i, tmpl, prod)
    out("            if _ty is not RegValue:")
    out("                if _ty is not PairValue:")
    out(f"                    raise CodeGenError({nr_head!r} + str(_hv) "
        "+ ', not a register')")
    out(f"                h{i}(ctx, t{i})")
    out("            else:")
    out("                _p = pget(_hv.cls)")
    out("                if _p is None:")
    out(f"                    h{i}(ctx, t{i})")
    out("                else:")
    out("                    _st = _p[_hv.reg]")
    out("                    if (_st.cse is not None or")
    out("                            _st.use_count - values.count(_hv) "
        "> 0):")
    out(f"                        h{i}(ctx, t{i})")
    out("                    else:")
    out("                        _st.stamp = alloc.global_index")


def _load_odd_inline(out, i: int, opcode: str, tmpl, prod, pair,
                     static=None) -> None:
    """Inline ``semantic_ops._load_odd``: the mapped opcode is baked,
    the pair binding is
    fetched through the shared prelude, and the source operand reuses
    the emit-step operand writers.  No origin tag: the stock
    handler emits through ``emit_instr`` without ``note_origin``.
    With a ``static`` allocation local the binding fetch and type
    dispatch disappear entirely."""
    if static is None:
        ref = tmpl.operands[0].base
        nr_head = f"{tmpl.op}: {ref} is bound to "
        notpair = f"{tmpl.op}: first operand must be a pair"
        _handler_ref_prelude(out, i, tmpl, prod)
        out("            if _ty is not PairValue:")
        out("                if _ty is not RegValue:")
        out(f"                    raise CodeGenError({nr_head!r} "
            "+ str(_hv) + ', not a register')")
        out(f"                raise CodeGenError({notpair!r})")
    writer, expr = pair
    if writer is not None:
        writer(out, "            ")
    if static is not None:
        out(f"            n_ = {static}.odd")
    else:
        out("            n_ = _hv.odd")
    out(f"            items.append(Instr({opcode!r}, "
        f"((R_INTERNED[n_] if 0 <= n_ < _NRT else R(n_)), {expr}), "
        f"{tmpl.comment!r}))")


def _emit_ctx_reducer(plan, gen, steps) -> List[str]:
    """The straight-line reducer for a production with semantic-operator
    handlers: the ``EmissionContext`` survives (handlers receive it and
    the allocator's patching hook reaches through it), but the step
    dispatch, pins, allocation scans, and epilogue are still unrolled
    with the allocator's fast paths inlined."""
    from repro.core.codegen import semantic_ops as _semops
    from repro.core.speclang.ast import Ref

    prod = plan.prod
    n = plan.nrhs
    is_lambda = plan.lambda_token is not None
    akinds = [_alloc_kind(gen, ref.name) for _, ref in plan.alloc_steps]
    any_gpr_scan = any(
        kind == "gpr" and is_using
        for (kind, _), (is_using, _) in zip(akinds, plan.alloc_steps)
    )
    # Allocation results live in locals (av{k}) with statically-known
    # value types.  Emit steps may read them directly -- bypassing the
    # bindings dict -- until the first handler runs: handlers can rebind
    # any key.  Reserve (need) steps disqualify the whole map: a later
    # reserve's shuffle patches bindings, not locals.
    _STATIC_TV = {"gpr": "RegValue", "pair": "PairValue", "cc": "CCValue"}
    static_env: Dict[Tuple[str, int], Tuple[str, str]] = {}
    if all(is_using for is_using, _ in plan.alloc_steps):
        for k, (_, ref) in enumerate(plan.alloc_steps):
            stv = _STATIC_TV.get(akinds[k][0])
            if stv is not None:
                static_env[(ref.name, ref.index)] = (f"av{k}", stv)

    w: List[str] = []
    out = w.append
    out("def _mk(gen, plan):")
    out("    prod = plan.prod")
    _bind_handlers(plan, steps, out)
    out("    _ECn = EmissionContext.__new__")
    out("    _machine = gen.machine")
    # Opcode templates are inlined rather than dispatched through the
    # plan's emit closures; exec step i's template is the i-th
    # non-using/need entry of the template list (mirrors _ProdPlan).
    exec_tmpls = [
        t for t in prod.templates if t.op not in ("using", "need")
    ]
    # Stock handlers with fixed, side-effect-transparent bodies are
    # inlined into the reducer instead of dispatched; a machine that
    # overrides one binds another function and keeps the call.
    hinline: Dict[int, Tuple[str, Optional[str]]] = {}
    for kind, i, op in steps:
        if kind != "handler":
            continue
        h = plan.exec_steps[i][0]
        tmpl = exec_tmpls[i]
        ref_ok = (
            tmpl.operands and not tmpl.operands[0].is_address
            and isinstance(tmpl.operands[0].base, Ref)
        )
        if h is _semops.h_ignore_lhs:
            hinline[i] = ("ignore", None)
        elif h is _semops.h_push_even or h is _semops.h_push_odd:
            if ref_ok:
                keep = "even" if h is _semops.h_push_even else "odd"
                hinline[i] = ("push", keep)
        elif h is _semops.h_modifies:
            if ref_ok:
                hinline[i] = ("modifies", None)
        elif h is _semops._load_odd:
            opcode = gen.machine.semop_opcodes.get(tmpl.op)
            if ref_ok and opcode is not None and len(tmpl.operands) == 2:
                hinline[i] = ("load_odd", opcode)
    runtime_handlers = any(
        kind == "handler" and i not in hinline for kind, i, _ in steps
    )
    static_push = any(tag == "push" for tag, _ in hinline.values())
    static_ignore = any(tag == "ignore" for tag, _ in hinline.values())
    static_lodd = any(tag == "load_odd" for tag, _ in hinline.values())
    konsts: List[str] = []
    factory: List[str] = []
    emit_plans = {}
    lodd_plans = {}
    if any(kind == "emit" for kind, _, _ in steps) or static_lodd:
        factory.append(
            "    _xts = [t for t in prod.templates "
            "if t.op not in ('using', 'need')]"
        )
    if static_push:
        factory.append("    cget = gen._code_get")
    hstatic: Dict[int, object] = {}
    for kind, i, op in steps:
        if kind == "handler" and i in hinline:
            tag, arg = hinline[i]
            if tag in ("push", "modifies", "load_odd"):
                # Position-sensitive: captured before this step's own
                # static_env clear, after any earlier clears.
                _hr = exec_tmpls[i].operands[0].base
                _hs = static_env.get((_hr.name, _hr.index))
                if _hs is not None:
                    var, stv = _hs
                    if tag == "modifies" and stv == "RegValue":
                        hstatic[i] = (var, f"_p_{var}")
                    elif tag != "modifies" and stv == "PairValue":
                        hstatic[i] = var
            tmpl = exec_tmpls[i]
            if tag in ("push", "modifies", "load_odd"):
                factory.append(f"    _h{i} = t{i}.operands[0].base")
            if tag == "load_odd":
                factory.append(f"    _xt{i} = _xts[{i}]")
                lodd_plans[i] = _ctx_operand(
                    i, 1, tmpl.operands[1], tmpl, prod, gen, factory,
                    konsts, static_env,
                )
            if tag == "modifies":
                # MODIFIES can relocate -- rebinding its key through
                # the delegate -- so allocation locals are no longer
                # trustworthy for later emit steps.
                static_env = {}
            # The other inlined handlers never rebind arbitrary keys
            # (a push/load reload rebinds only its own -- spilled,
            # hence non-allocation -- key), so allocation locals stay
            # valid.
            continue
        if kind != "emit":
            # A handler may rebind any key: allocation locals are no
            # longer trustworthy for later emit steps.
            static_env = {}
            continue
        tmpl = exec_tmpls[i]
        factory.append(f"    _xt{i} = _xts[{i}]")
        emit_plans[i] = (tmpl, [
            _ctx_operand(
                i, j, operand, tmpl, prod, gen, factory, konsts,
                static_env,
            )
            for j, operand in enumerate(tmpl.operands)
        ])
    w.extend(konsts)
    w.extend(factory)
    if is_lambda:
        out("    lam_token = plan.lambda_token")
        out("    lam_goto = (lam_token.code, lam_token.symbol, "
            "lam_token.sem)")
    else:
        out("    lhs_ref = prod.lhs_ref")
        out("    first_tmpl = plan.first_tmpl")

    out("    def _reduce(run, stack, front):")
    out("        alloc = run.alloc")
    # Small arities get per-position locals (v0..v3): the pin and
    # release loops below unroll over them, and the bindings display
    # reads them without re-indexing the list.
    unrolled_rhs = 1 <= n <= 4
    if n == 1:
        out("        v0 = stack.pop()[2]")
        out("        values = [v0]")
    elif unrolled_rhs:
        for j in range(n):
            out(f"        v{j} = stack[-{n - j}][2]")
        out(f"        del stack[-{n}:]")
        vlist = ", ".join(f"v{j}" for j in range(n))
        out(f"        values = [{vlist}]")
    elif n:
        out(f"        values = [v for _, _, v in stack[-{n}:]]")
        out(f"        del stack[-{n}:]")
    else:
        out("        values = []")
    out("        alloc.global_index += 1")
    out("        pget = alloc._pool_by_nt.get")
    out("        epoch = alloc._pin_epoch")
    out("        onf = alloc.on_free")
    if any_gpr_scan:
        out('        lru = alloc.strategy == "lru"')
    # EmissionContext.__init__ unrolled into slot stores (the factory
    # verified the slot layout); bindings become a baked dict display.
    out("        ctx = _ECn(EmissionContext)")
    out("        ctx.gen = gen")
    out("        ctx.run = run")
    out("        ctx.prod = prod")
    out("        ctx.values = values")
    out("        ctx.machine = _machine")
    out("        ctx.alloc = alloc")
    out("        ctx.cse = run.cse")
    out("        ctx.labels = run.labels")
    out("        buffer = run.buffer")
    out("        ctx.buffer = buffer")
    out("        ctx.stats = run.stats")
    out("        ctx.ignore_lhs = False")
    out("        ctx.prefix = []")
    out("        ctx.allocated = []")
    out("        ctx._suppressed = []")
    if plan.binding_refs:
        pairs = ", ".join(
            f"{key!r}: v{pos}" if unrolled_rhs
            else f"{key!r}: values[{pos}]"
            for key, pos in plan.binding_refs
        )
        out(f"        ctx.bindings = _b = {{{pairs}}}")
    else:
        out("        ctx.bindings = _b = {}")
    out("        run.active_ctx = ctx")
    if emit_plans or lodd_plans:
        out("        items = buffer.items")
        out("        origins = buffer.origins")
    out("        try:")
    # -- pins + allocation requests (paper 4.1).
    if unrolled_rhs:
        # tv{j}/_pv{j} are reused by the release epilogue: types and
        # pool mappings are immutable, handlers can't change them.
        for j in range(n):
            out(f"            tv{j} = type(v{j})")
            _pin_dyn(out, "            ", f"v{j}", f"tv{j}",
                     pool_var=f"_pv{j}")
    elif n:
        out("            for value in values:")
        out("                tv = type(value)")
        _pin_dyn(out, "                ", "value", "tv")
    for k, (is_using, ref) in enumerate(plan.alloc_steps):
        kind, regs = akinds[k]
        _alloc_step_inline(
            out, "            ", f"av{k}", ref.name, kind, regs,
            is_using, number=ref.index,
        )
        out(f"            _b[({ref.name!r}, {ref.index!r})] = av{k}")
        out(f"            ctx.allocated.append(av{k})")
    # -- the template sequence, unrolled.
    for kind, i, op in steps:
        if kind == "emit":
            tmpl, pairs = emit_plans[i]
            for writer, _expr in pairs:
                if writer is not None:
                    writer(out, "            ")
            exprs = [expr for _, expr in pairs]
            tup = ", ".join(exprs) + ("," if len(exprs) == 1 else "")
            tag = f"spec line {tmpl.line}: {tmpl}"
            out(f"            items.append(Instr({tmpl.op!r}, ({tup}), "
                f"{tmpl.comment!r}))")
            out(f"            origins[len(items) - 1] = {tag!r}")
        elif kind == "handler":
            spec = hinline.get(i)
            if spec is None:
                out(f"            h{i}(ctx, t{i})")
            elif spec[0] == "ignore":
                out("            ctx.ignore_lhs = True")
            elif spec[0] == "push":
                _push_half_inline(
                    out, i, spec[1], exec_tmpls[i], prod, hstatic.get(i),
                )
            elif spec[0] == "modifies":
                _modifies_inline(
                    out, i, exec_tmpls[i], prod, hstatic.get(i),
                )
            else:
                _load_odd_inline(
                    out, i, spec[1], exec_tmpls[i], prod, lodd_plans[i],
                    hstatic.get(i),
                )
        else:
            msg = f"no handler for semantic operator {op!r}"
            out(f"            raise CodeGenError({msg!r})")
            break  # everything after the raise is unreachable
    # -- epilogue: LHS push-back + RHS/scratch release.
    # Static epilogue analysis: pushes are the only suppressors, and
    # with no runtime handler the allocated list's contents are known
    # up to spill reloads (see _ctx_releases).
    push_steps = [i for i, (tag, _) in hinline.items() if tag == "push"]
    static_push_vars = [hstatic[i] for i in push_steps if i in hstatic]
    rhs_suppress = runtime_handlers or len(static_push_vars) != len(
        push_steps
    )
    alloc_static = None
    if (not rhs_suppress
            and len(set(static_push_vars)) == len(static_push_vars)
            and all(kind is not None for kind, _ in akinds)):
        pushed = set(static_push_vars)
        survivors = []
        for k, (is_using, ref) in enumerate(plan.alloc_steps):
            var = f"av{k}"
            if var in pushed:
                continue
            kind, regs = akinds[k]
            pool_local = None
            if kind == "gpr" and is_using:
                pool_local = f"_p_{var}"
            elif (kind == "pair" and is_using
                    and regs == tuple(sorted(regs))):
                pool_local = f"_p_{var}"
            survivors.append((var, kind, ref.name, pool_local))
        alloc_static = (len(plan.alloc_steps) - len(pushed), survivors)
    raised = steps and steps[-1][0] == "missing"
    if not raised:
        if is_lambda:
            w.extend(_ctx_releases(rhs_suppress, n, alloc_static))
            if static_push and not runtime_handlers:
                # An inlined push ran unconditionally: the prefix is
                # provably non-empty.
                out("            prefix = ctx.prefix")
                out("            prefix.append(lam_token)")
                out("            front.extend(reversed(prefix))")
                out("            return None")
            elif runtime_handlers or static_push:
                out("            prefix = ctx.prefix")
                out("            if prefix:")
                out("                prefix.append(lam_token)")
                out("                front.extend(reversed(prefix))")
                out("                return None")
                out("            return lam_goto")
            else:
                # Only emits and inlined IGNORE_LHS steps: nothing can
                # have prefixed a token.
                out("            return lam_goto")
        else:
            lhs_msg = f"LHS {prod.lhs_ref} unbound at end of {prod}"
            if runtime_handlers:
                out("            if ctx.ignore_lhs:")
                out("                lhs_value = None")
                out("            else:")
                ind = "                "
            elif static_ignore:
                # An inlined IGNORE_LHS ran unconditionally and no
                # live handler could reset it: the LHS is never
                # pushed, skip its binding and acquire entirely.
                out("            lhs_value = None")
                ind = None
            else:
                ind = "            "
            if ind is not None:
                out(f"{ind}lhs_value = ctx.bindings.get({plan.lhs_key!r})")
                out(f"{ind}if lhs_value is None:")
                out(f"{ind}    raise CodeGenError({lhs_msg!r})")
                out(f"{ind}tv = type(lhs_value)")
                out(f"{ind}if tv is SpilledValue:")
                out(f"{ind}    lhs_value = "
                    "ctx.reg_binding(lhs_ref, first_tmpl)")
                out(f"{ind}    tv = type(lhs_value)")
                _acquire_dyn(out, ind, "lhs_value", "tv")
            w.extend(_ctx_releases(rhs_suppress, n, alloc_static))
            if runtime_handlers:
                out("            prefix = ctx.prefix")
                out("            if prefix:")
                out("                if lhs_value is not None:")
                out(f"                    prefix.append(IFToken("
                    f"{plan.lhs_symbol!r}, None, lhs_value, "
                    f"{plan.lhs_code}))")
                out("                front.extend(reversed(prefix))")
                out("                return None")
                out("            if lhs_value is None:")
                out("                return None")
                out(f"            return ({plan.lhs_code}, "
                    f"{plan.lhs_symbol!r}, lhs_value)")
            elif static_push:
                out("            prefix = ctx.prefix")
                out("            if lhs_value is not None:")
                out(f"                prefix.append(IFToken("
                    f"{plan.lhs_symbol!r}, None, lhs_value, "
                    f"{plan.lhs_code}))")
                out("            front.extend(reversed(prefix))")
                out("            return None")
            elif static_ignore:
                out("            return None")
            else:
                out(f"            return ({plan.lhs_code}, "
                    f"{plan.lhs_symbol!r}, lhs_value)")
    out("        finally:")
    out("            run.active_ctx = None")
    out("            alloc._pin_epoch += 1")
    out("    return _reduce")
    out("")
    out("")
    return w


def _ctx_releases(rhs_suppress: bool, n: int, alloc_static=None
                  ) -> List[str]:
    """RHS-operand + scratch release loops (paper 4.1 use counting),
    with the allocator's release body inlined per value.

    The suppression check only exists when something could have
    suppressed an *RHS* value -- a live semantic-operator handler or
    an inlined push on a dynamic binding.  Static pushes suppress only
    this reduction's own allocation locals (fresh objects, never
    identical to a stack value), so productions where those are the
    only suppressors skip the scan entirely.

    ``alloc_static`` -- ``(expected_len, survivors)`` -- is supplied
    when no runtime handler can touch ``ctx.allocated``: its contents
    are then statically the allocation locals minus the pushed ones,
    *unless* a spill reload appended to it.  A reload strictly grows
    the list, so ``len(ctx.allocated) == expected_len`` proves no
    reload happened and the release loop unrolls to direct decrements;
    any other length falls back to the generic loop.
    """
    w: List[str] = []
    guard = None

    def _scan(var: str) -> List[str]:
        # ``is_suppressed`` unrolled: an identity scan (dataclass
        # ``__eq__`` must NOT be consulted) over the usually empty
        # or single-element suppression list.
        return [
            "_sup = False",
            "if suppressed:",
            "    for _s in suppressed:",
            f"        if {var} is _s:",
            "            _sup = True",
            "            break",
        ]

    if n:
        if rhs_suppress:
            w.append("            suppressed = ctx._suppressed")
            guard = "not _sup"
        if 1 <= n <= 4:
            # Per-position locals (v{j}/tv{j}/_pv{j}) from the
            # reducer's pin preamble.
            for j in range(n):
                _release_dyn(
                    w.append, "            ", f"v{j}", f"tv{j}",
                    guard=guard,
                    pre=_scan(f"v{j}") if rhs_suppress else None,
                    pool_var=f"_pv{j}",
                )
        else:
            w.append("            for value in values:")
            w.append("                tv = type(value)")
            _release_dyn(
                w.append, "                ", "value", "tv", guard=guard,
                pre=_scan("value") if rhs_suppress else None,
            )
    if alloc_static is None:
        w.append("            for value in ctx.allocated:")
        w.append("                tv = type(value)")
        _release_dyn(w.append, "                ", "value", "tv")
        return w
    expected, survivors = alloc_static
    if not expected:
        # Statically empty unless a reload appended: one truth test.
        w.append("            if ctx.allocated:")
        w.append("                for value in ctx.allocated:")
        w.append("                    tv = type(value)")
        _release_dyn(w.append, "                    ", "value", "tv")
        return w
    w.append(f"            if len(ctx.allocated) == {expected}:")
    ind = "                "
    for var, kind, nt, pool_local in survivors:
        if kind == "cc":
            continue  # CC release is a no-op (no pool)
        if pool_local is None:
            pool_local = f"_pr_{var}"
            w.append(f"{ind}{pool_local} = pget({nt!r})")
        if kind == "gpr":
            w.append(f"{ind}_n = {var}.reg")
            _dec(w.append, ind, pool_local, "_n")
        else:
            w.append(f"{ind}_n = {var}.even")
            _dec(w.append, ind, pool_local, "_n")
            w.append(f"{ind}_n = {var}.odd")
            _dec(w.append, ind, pool_local, "_n")
    if all(kind == "cc" for _, kind, _, _ in survivors):
        w.append(f"{ind}pass")
    w.append("            else:")
    w.append("                for value in ctx.allocated:")
    w.append("                    tv = type(value)")
    _release_dyn(w.append, "                    ", "value", "tv")
    return w


def emit_module(gen, pid: int) -> str:
    """Source of the reducer factory ``_mk(gen, plan)`` for production
    ``pid`` of ``gen``, choosing the deepest specialization the
    production's shape allows."""
    from repro.core.codegen.parser_rt import _MISSING_HANDLER

    plan = gen._plans[pid]
    steps = []  # ("emit", i, None) | ("handler", i, None) | ("missing", i, op)
    for i, (handler, payload) in enumerate(plan.exec_steps):
        if handler is None:
            steps.append(("emit", i, None))
        elif handler is _MISSING_HANDLER:
            steps.append(("missing", i, payload.op))
        else:
            steps.append(("handler", i, None))
    handler_free = all(kind == "emit" for kind, _, _ in steps)
    lhs_ok = plan.lambda_token is not None or plan.lhs_key is not None
    # NEED (reserve) steps disqualify the context-free path: reserving a
    # busy register shuffles its contents *regardless of pins*, and the
    # resulting _patch_values rebinding only reaches values held in an
    # EmissionContext, not locals.
    using_only = all(is_using for is_using, _ in plan.alloc_steps)
    if handler_free and lhs_ok and using_only:
        lines = _emit_fast_reducer(plan, gen, steps)
    else:
        lines = _emit_ctx_reducer(plan, gen, steps)
    return "\n".join(lines) + "\n"


#: The names the emitted reducers use, bound once on first use.
_GLOBALS: Dict[str, Any] = {}


def _globals() -> Dict[str, Any]:
    if not _GLOBALS:
        from repro.core.codegen.emitter import Imm, Instr, Mem, R, R_INTERNED
        from repro.core.codegen.operand import (
            AttrValue, CCValue, PairValue, RegValue, SpilledValue,
        )
        from repro.core.codegen.parser_rt import EmissionContext
        from repro.errors import CodeGenError
        from repro.ir.linear import IFToken

        _GLOBALS.update(
            Imm=Imm, Instr=Instr, Mem=Mem, R=R, R_INTERNED=R_INTERNED,
            _NRT=len(R_INTERNED), AttrValue=AttrValue, CCValue=CCValue,
            PairValue=PairValue, RegValue=RegValue,
            SpilledValue=SpilledValue, EmissionContext=EmissionContext,
            CodeGenError=CodeGenError, IFToken=IFToken,
        )
    return _GLOBALS


def load_module(source: str, gen, pid: int) -> Callable:
    """Compile :func:`emit_module`'s ``source`` and bind it to
    production ``pid`` of ``gen``: the reducer for its slot."""
    namespace = dict(_globals())
    exec(compile(source, f"<reducer {pid}>", "exec"), namespace)
    return namespace["_mk"](gen, gen._plans[pid])
