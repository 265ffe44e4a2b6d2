"""Compiled reducers: one production's reduction as straight-line Python.

The generic reducer (:meth:`repro.core.codegen.parser_rt.CodeGenerator._reduce`)
walks a production's :class:`~repro.core.codegen.parser_rt._ProdPlan`
on every reduction.  Once a production has been reduced
:data:`~repro.core.codegen.parser_rt.COMPILE_THRESHOLD` times, the code
generator asks this module for a reducer compiled from that live plan
and installs it in the production's slot.  Every compiled reducer has
one shape:

* the RHS pops into locals, the pins, the ``using``/``need`` requests
  (class name and binding key baked in as literals) and the template
  sequence are unrolled into one function;
* opcode templates resolve every operand inline (the interned ``R``
  operand table indexed directly, constant operands prebuilt and
  shared), with the checks and error messages of
  ``EmissionContext.resolve_*``;
* an incoming ``SpilledValue`` sends that reduction to the generic
  reducer, which owns the reload; and
* every register-state change is a call to the
  :class:`~repro.core.codegen.registers.RegisterAllocator`, the one
  owner of its pools: the reducer bakes only which values are
  registers and in which order they are pinned, allocated, acquired
  and released.

A production with a semantic-operator handler or a ``need`` step also
builds the ``EmissionContext``, calls each handler with it, and ends in
the generic reducer's epilogue (``CodeGenerator._finish``).  Its opcode
templates read the RHS and allocation locals until the first handler or
``need`` step; after it, each template re-reads the keys it names from
the context's bindings, since a handler may rebind any key and a
reserve's shuffle patches bindings, not locals.  A production with
neither skips the context and unrolls the epilogue too.  That is safe
because the context exists for two consumers only: semantic-operator
handlers (absent by construction) and the allocator's spill/move
patching hook ``_patch_values`` -- which can never match a binding of
the current reduction, since every register bound during a reduction
(RHS operands and fresh allocations alike) is pinned before anything
can allocate, and pinned registers are never spill victims.

A compiled reducer has the generic one's contract: it returns
``(code, symbol, value)`` of the LHS for the main loop to shift, or
``None`` after pushing the tokens to re-parse onto ``front``.  The two
emit identical code (``tests/test_specialize.py``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.machine import ClassKind


# ---- emission: operand resolution -------------------------------------------
#
# These helpers mirror EmissionContext.resolve_int/resolve_reg/
# resolve_operand, the resolver of the generic reducer and the semantic
# handlers, but emit *source text*.  ``env`` maps a binding key to the
# reducer local holding its value and that local's type: a type name
# ("RegValue", ...) when the type is static, else the local holding it.
# A key outside ``env`` is unbound.  No local holds a ``SpilledValue``:
# the reducer reloads one before the template runs.  Error messages are
# reproduced exactly; runtime values are spliced via string
# concatenation so arbitrary spec text never breaks the quoting of the
# generated reducer.


#: The field holding a value's number, by value type.
_NUMBER_FIELD = {"AttrValue": "value", "RegValue": "reg", "PairValue": "even"}


def _scalar_ref(primary, tmpl, prod, env, what, order):
    """A writer ``writer(out, ind, dst)`` binding a reference's number to
    ``dst``: ``order`` lists the value types tried, ``what`` ends the
    type error."""
    slot = env.get((primary.name, primary.index))
    unbound = f"{tmpl.op}: {primary} is unbound in {prod}"
    verb = "resolves to" if what == "number" else "is bound to"
    head = f"{tmpl.op}: {primary} {verb} "
    field = _NUMBER_FIELD

    def writer(out, ind, dst):
        if slot is None:
            out(f"{ind}raise CodeGenError({unbound!r})")
            return
        v, tv = slot
        if tv in field:
            # A static type: emit the one branch the dispatch would take.
            out(f"{ind}{dst} = {v}.{field[tv]}")
            return
        if tv == "CCValue":
            out(f"{ind}raise CodeGenError(")
            out(f"{ind}    {head!r} + str({v}) + ', not a {what}')")
            return
        for n, name in enumerate(order):
            out(f"{ind}{'el' if n else ''}if {tv} is {name}:")
            out(f"{ind}    {dst} = {v}.{field[name]}")
        out(f"{ind}elif {v} is None:")
        out(f"{ind}    raise CodeGenError({unbound!r})")
        out(f"{ind}else:")
        out(f"{ind}    raise CodeGenError(")
        out(f"{ind}        {head!r} + str({v}) + ', not a {what}')")

    return writer


def _inline_int(primary, tmpl, prod, gen, env):
    """Mirror of ``EmissionContext.resolve_int``: ``(const, None)`` or
    ``(None, writer)`` where ``writer(out, ind, dst)`` emits statements
    binding the resolved integer to ``dst``.  Constants resolve here,
    once per reducer."""
    from repro.core.speclang.ast import Name, Number

    if isinstance(primary, Number):
        return primary.value, None
    if isinstance(primary, Name):
        value = gen.constants.get(primary.name)
        if value is None:
            msg = (
                f"{tmpl.op}: constant {primary.name!r} has no value in the "
                f"spec or machine description"
            )

            def missing(out, ind, dst, msg=msg):
                out(f"{ind}raise CodeGenError({msg!r})")

            return None, missing
        return value, None
    return None, _scalar_ref(
        primary, tmpl, prod, env, "number",
        ("AttrValue", "RegValue", "PairValue"),
    )


def _inline_reg(primary, tmpl, prod, gen, env):
    """Mirror of ``EmissionContext.resolve_reg``: register-number
    scalars (address index/base parts) accept attributes first, then
    registers."""
    from repro.core.speclang.ast import Ref

    if not isinstance(primary, Ref):
        return _inline_int(primary, tmpl, prod, gen, env)
    return None, _scalar_ref(
        primary, tmpl, prod, env, "register",
        ("AttrValue", "PairValue", "RegValue"),
    )


def _inline_operand(t, j, operand, tmpl, prod, gen, env, konsts):
    """Mirror of ``EmissionContext.resolve_operand``.

    Returns ``(writer, expr)``: ``writer(out, ind)`` emits any prep
    statements (or is ``None``), ``expr`` is the operand expression for
    the ``Instr`` tuple.  Fully-constant operands become shared
    factory-level ``Imm``/``Mem`` instances in ``konsts`` (both are
    frozen).
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
        slot = env.get((base.name, base.index))
        unbound = f"{tmpl.op}: {base} is unbound in {prod}"
        head = f"{tmpl.op}: operand {base} is bound to "
        dst = f"o{t}_{j}"

        def ref_writer(out, ind):
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


def _reread(out, ind: str, t: int, tmpl) -> Dict[Tuple[str, int], Tuple[str, str]]:
    """Bind each key template ``t`` names, read from ``ctx.bindings``
    (hoisted as ``_b``), to a local, reloading a spilled value through
    the context as the resolver would, in the resolver's order; returns
    the environment of those locals."""
    from repro.core.speclang.ast import Ref

    env: Dict[Tuple[str, int], Tuple[str, str]] = {}
    for j, operand in enumerate(tmpl.operands):
        for path in ("base", "index", "base_reg"):
            primary = getattr(operand, path)
            if type(primary) is not Ref:
                continue
            key = (primary.name, primary.index)
            if key in env:
                continue
            v, tv = env[key] = (f"w{len(env)}", f"tw{len(env)}")
            out(f"{ind}{v} = _b.get({key!r})")
            out(f"{ind}{tv} = type({v})")
            out(f"{ind}if {tv} is SpilledValue:")
            out(f"{ind}    {v} = ctx._reload("
                f"plan.exec_steps[{t}][1].operands[{j}].{path}, {v})")
            out(f"{ind}    {tv} = RegValue")
    return env


# ---- register-allocator calls ----------------------------------------------
#
# The reducers leave every register-state decision to the
# RegisterAllocator (repro.core.codegen.registers): they call its
# pin/allocate/reserve/acquire/release/unpin_all where the generic
# reducer does, in the same order.  What the emitter bakes is the
# dispatch around those calls: binding keys, allocation requests, and
# which values are statically registers.

#: Value type of an allocation result, by register class kind.
_ALLOC_TYPE = {ClassKind.PAIR: "PairValue", ClassKind.CC: "CCValue"}


def _alloc_type(gen, name: str) -> str:
    """The static type of what ``allocate``/``reserve`` returns for
    class ``name``.  An unknown class makes the call raise before the
    type matters."""
    cls = gen.machine.classes.get(name)
    return _ALLOC_TYPE.get(cls.kind if cls else None, "RegValue")


def _if_reg(out, ind: str, v: str, tv: str, call: str) -> None:
    """``alloc.<call>(v)`` when ``v`` is a register or pair; ``tv`` is
    the local holding its type, or a static type name."""
    if tv in ("RegValue", "PairValue"):
        out(f"{ind}alloc.{call}({v})")
    elif tv != "CCValue":
        out(f"{ind}if {tv} is RegValue or {tv} is PairValue:")
        out(f"{ind}    alloc.{call}({v})")


def _alloc_step(out, ind: str, target: str, is_using: bool, ref,
                tv: str) -> None:
    """One ``using``/``need`` request into ``target``, pinned at once
    (paper 4.1: all registers are allocated before any template runs)."""
    if is_using:
        out(f"{ind}{target} = alloc.allocate({ref.name!r})")
    else:
        out(f"{ind}{target} = alloc.reserve({ref.name!r}, {ref.index!r})")
    _if_reg(out, ind, target, tv, "pin")


def _emit_reducer(plan, gen) -> List[str]:
    """The straight-line reducer of one production: RHS pops into
    locals, pins, allocation requests, the template sequence and the
    epilogue, unrolled.  An incoming ``SpilledValue`` sends the
    reduction to the generic ``_reduce``, which owns the reload.

    A production with a semantic-operator handler or a ``need`` step
    gets an ``EmissionContext``: handlers receive it, and the shuffle a
    ``need`` makes patches the bindings it holds, not locals.  Its
    opcode templates resolve from locals until the first handler or
    ``need`` step and from re-read bindings after it, and it ends in the
    generic reducer's epilogue, ``CodeGenerator._finish``.  Any other
    production skips the context and unrolls the epilogue as well.
    """
    prod = plan.prod
    n = plan.nrhs
    is_lambda = plan.lambda_token is not None
    nalloc = len(plan.alloc_steps)
    using_only = all(is_using for is_using, _ in plan.alloc_steps)
    has_ctx = not using_only or any(
        h is not None for h, _, _ in plan.exec_steps
    )

    # Binding environment: RHS positions first (last occurrence wins,
    # matching the bindings-dict build), then allocation results
    # (written over the base bindings in step order), whose value type
    # is static.  ``None`` once the bindings may have left the locals:
    # a reserve's shuffle may move any of them.
    atypes = [_alloc_type(gen, ref.name) for _, ref in plan.alloc_steps]
    local_env: Dict[Tuple[str, int], Tuple[str, str]] = {}
    for key, pos in plan.binding_refs:
        local_env[key] = (f"v{pos}", f"tv{pos}")
    for k, (_, ref) in enumerate(plan.alloc_steps):
        local_env[(ref.name, ref.index)] = (f"a{k}", atypes[k])
    env = local_env if using_only else None
    alloc_vars = {f"a{k}": k for k in range(nalloc)}

    w: List[str] = []
    out = w.append
    out("def _mk(gen, plan):")
    if n:
        out("    _slow = gen._reduce")
    if has_ctx:
        out("    prod = plan.prod")
        out("    _finish = gen._finish")
    elif is_lambda:
        out("    lam_token = plan.lambda_token")
        out("    lam_goto = (lam_token.code, lam_token.symbol, "
            "lam_token.sem)")

    # The body is generated first so that the factory lines it asks for
    # (constant operands, handlers) land before `def _reduce`.
    guarded = has_ctx or nalloc
    ind = "            " if guarded else "        "
    konsts: List[str] = []
    body: List[str] = []
    bout = body.append
    emitted = reread = False
    for i, (handler, tmpl, origin) in enumerate(plan.exec_steps):
        if handler is not None:
            konsts.append(f"    h{i}, t{i}, _ = plan.exec_steps[{i}]")
            bout(f"{ind}h{i}(ctx, t{i})")
            # A handler may rebind any key.
            env = None
            continue
        if not emitted:
            bout(f"{ind}buffer = run.buffer")
            bout(f"{ind}items = buffer.items")
            bout(f"{ind}origins = buffer.origins")
            emitted = True
        if env is None:
            tenv = _reread(bout, ind, i, tmpl)
            reread = True
        else:
            tenv = env
        exprs: List[str] = []
        for j, operand in enumerate(tmpl.operands):
            writer, expr = _inline_operand(
                i, j, operand, tmpl, prod, gen, tenv, konsts
            )
            if writer is not None:
                writer(bout, ind)
            exprs.append(expr)
        tup = ", ".join(exprs) + ("," if len(exprs) == 1 else "")
        bout(f"{ind}items.append(Instr({tmpl.op!r}, ({tup}), "
             f"{tmpl.comment!r}))")
        bout(f"{ind}origins[len(items) - 1] = {origin!r}")

    if has_ctx:
        bout(f"{ind}return _finish(ctx, plan, front)")
    else:
        # LHS acquire + RHS/scratch release, then the goto tuple.  When
        # the LHS *is* one of this reduction's fresh allocations, the
        # acquire/release pair on it is a net no-op (use count
        # 1 -> 2 -> 1, never 0) and both calls are elided.
        elide = None
        goto: Optional[str] = "lam_goto"
        if not is_lambda:
            slot = local_env.get(plan.lhs_key)
            lhs_msg = f"LHS {prod.lhs_ref} unbound at end of {prod}"
            if slot is None:
                bout(f"{ind}raise CodeGenError({lhs_msg!r})")
                goto = None
            else:
                v, tv = slot
                elide = alloc_vars.get(v)
                if elide is None:
                    bout(f"{ind}if {v} is None:")
                    bout(f"{ind}    raise CodeGenError({lhs_msg!r})")
                    _if_reg(bout, ind, v, tv, "acquire")
                goto = f"({plan.lhs_code}, {plan.lhs_symbol!r}, {v})"
        if goto is not None:
            # Consume the RHS operands and the scratch allocations
            # (paper 4.1 use counting); only handlers can suppress a
            # release.
            for pos in range(n):
                _if_reg(bout, ind, f"v{pos}", f"tv{pos}", "release")
            for k in range(nalloc):
                if k != elide:
                    _if_reg(bout, ind, f"a{k}", atypes[k], "release")
            bout(f"{ind}return {goto}")

    w.extend(konsts)
    out("    def _reduce(run, stack, front):")
    for pos in range(n):
        out(f"        v{pos} = stack[{pos - n}][2]")
        out(f"        tv{pos} = type(v{pos})")
    if n:
        guards = " or ".join(f"tv{pos} is SpilledValue" for pos in range(n))
        out(f"        if {guards}:")
        out("            return _slow(run, front, plan)")
        out(f"        del stack[-{n}:]")
    out("        alloc = run.alloc")
    out("        alloc.global_index += 1")
    if has_ctx:
        values = ", ".join(f"v{pos}" for pos in range(n))
        out(f"        ctx = EmissionContext(gen, run, prod, [{values}], plan)")
        if nalloc or reread:
            out("        _b = ctx.bindings")
        out("        run.active_ctx = ctx")
    if guarded:
        # Pins + allocation (paper 4.1: all registers are allocated
        # before any template runs).  Without a context or an allocation
        # nothing can evict, so the pins would never be consulted.
        out("        try:")
        for pos in range(n):
            _if_reg(out, ind, f"v{pos}", f"tv{pos}", "pin")
        for k, (is_using, ref) in enumerate(plan.alloc_steps):
            _alloc_step(out, ind, f"a{k}", is_using, ref, atypes[k])
            if has_ctx:
                out(f"{ind}_b[({ref.name!r}, {ref.index!r})] = a{k}")
                out(f"{ind}ctx.allocated.append(a{k})")
    w.extend(body)
    if guarded:
        out("        finally:")
        if has_ctx:
            out("            run.active_ctx = None")
        out("            alloc.unpin_all()")
    out("    return _reduce")
    out("")
    out("")
    return w


def emit_module(gen, pid: int) -> str:
    """Source of the reducer factory ``_mk(gen, plan)`` for production
    ``pid`` of ``gen``."""
    return "\n".join(_emit_reducer(gen._plans[pid], gen)) + "\n"


#: The names the emitted reducers use, bound once on first use.
_GLOBALS: Dict[str, Any] = {}


def _globals() -> Dict[str, Any]:
    if not _GLOBALS:
        from repro.core.codegen.emitter import Imm, Instr, Mem, R, R_INTERNED
        from repro.core.codegen.operand import (
            AttrValue, PairValue, RegValue, SpilledValue,
        )
        from repro.core.codegen.parser_rt import EmissionContext
        from repro.errors import CodeGenError

        _GLOBALS.update(
            Imm=Imm, Instr=Instr, Mem=Mem, R=R, R_INTERNED=R_INTERNED,
            _NRT=len(R_INTERNED), AttrValue=AttrValue,
            PairValue=PairValue, RegValue=RegValue,
            SpilledValue=SpilledValue, EmissionContext=EmissionContext,
            CodeGenError=CodeGenError,
        )
    return _GLOBALS


def load_module(source: str, gen, pid: int) -> Callable:
    """Compile :func:`emit_module`'s ``source`` and bind it to
    production ``pid`` of ``gen``: the reducer for its slot."""
    namespace = dict(_globals())
    exec(compile(source, f"<reducer {pid}>", "exec"), namespace)
    return namespace["_mk"](gen, gen._plans[pid])
