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
  directly, constant operands prebuilt and shared), with the checks
  and error messages of ``EmissionContext.resolve_*``; and
* every register-state change is a call to the
  :class:`~repro.core.codegen.registers.RegisterAllocator`, the one
  owner of its pools: the reducer bakes only which values are
  registers and in which order they are pinned, allocated, acquired
  and released.

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

from repro.core.machine import ClassKind


# ---- emission: operand resolution -------------------------------------------
#
# These helpers mirror EmissionContext.resolve_int/resolve_reg/
# resolve_operand, the resolver of the generic reducer and the semantic
# handlers, but emit *source text*.  Each reference is read from one of
# two places.  ``env`` maps a binding key to the reducer local holding
# its value and that local's type: a type name ("RegValue", ...) when
# the type is static, else the local holding it.  A key outside ``env``
# is read from ``ctx.bindings`` (hoisted as ``_b``) with the spill
# reload, when the reducer has a context; without one it is unbound.
# Error messages are reproduced exactly; runtime values are spliced via
# string concatenation so arbitrary spec text never breaks the quoting
# of the generated reducer.


def _read_binding(out, ind: str, dst: str, key, unbound: str,
                  reload: str) -> None:
    """Fetch ``key`` from ``_b`` into ``dst``/``_ty``; a spilled value
    is replaced by ``reload`` (an expression that may name ``dst``)."""
    out(f"{ind}{dst} = _b.get({key!r})")
    out(f"{ind}if {dst} is None:")
    out(f"{ind}    raise CodeGenError({unbound!r})")
    out(f"{ind}_ty = type({dst})")
    out(f"{ind}if _ty is SpilledValue:")
    out(f"{ind}    {dst} = {reload}")
    out(f"{ind}    _ty = type({dst})")


#: The field holding a value's number, by value type.
_NUMBER_FIELD = {"AttrValue": "value", "RegValue": "reg", "PairValue": "even"}


def _scalar_ref(primary, tmpl, prod, env, ctx_ref, what, order):
    """A writer ``writer(out, ind, dst)`` binding a reference's number to
    ``dst``: ``order`` lists the value types tried, ``what`` ends the
    type error.  ``ctx_ref`` is ``(pvar, tvar)``, the factory locals
    holding the primary and its template, or ``None``."""
    key = (primary.name, primary.index)
    slot = env.get(key)
    unbound = f"{tmpl.op}: {primary} is unbound in {prod}"
    verb = "resolves to" if what == "number" else "is bound to"
    head = f"{tmpl.op}: {primary} {verb} "
    field = _NUMBER_FIELD

    def writer(out, ind, dst):
        if slot is None:
            if ctx_ref is None:
                out(f"{ind}raise CodeGenError({unbound!r})")
                return
            pvar, tvar = ctx_ref
            reload = (
                f"ctx.reg_binding({pvar}, {tvar})" if what == "number"
                else f"ctx._reload({pvar}, {dst})"
            )
            _read_binding(out, ind, dst, key, unbound, reload)
            v, tv = dst, "_ty"
        else:
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


def _inline_int(primary, tmpl, prod, gen, env, ctx_ref=None):
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
        primary, tmpl, prod, env, ctx_ref, "number",
        ("AttrValue", "RegValue", "PairValue"),
    )


def _inline_reg(primary, tmpl, prod, gen, env, ctx_ref=None):
    """Mirror of ``EmissionContext.resolve_reg``: register-number
    scalars (address index/base parts) accept attributes first, then
    registers."""
    from repro.core.speclang.ast import Ref

    if not isinstance(primary, Ref):
        return _inline_int(primary, tmpl, prod, gen, env)
    return None, _scalar_ref(
        primary, tmpl, prod, env, ctx_ref, "register",
        ("AttrValue", "PairValue", "RegValue"),
    )


def _inline_operand(t, j, operand, tmpl, prod, gen, env, konsts,
                    factory=None):
    """Mirror of ``EmissionContext.resolve_operand``.

    Returns ``(writer, expr)``: ``writer(out, ind)`` emits any prep
    statements (or is ``None``), ``expr`` is the operand expression for
    the ``Instr`` tuple.  Fully-constant operands become shared
    factory-level ``Imm``/``Mem`` instances in ``konsts`` (both are
    frozen).  ``factory`` is ``None`` in a reducer without a context;
    otherwise it collects the bind-time lines recovering the primaries
    that the spill reloads pass back to the context.
    """
    from repro.core.speclang.ast import Ref

    tvar = f"_xt{t}"

    def ctx_ref(primary, path, pvar):
        if (factory is None or not isinstance(primary, Ref)
                or (primary.name, primary.index) in env):
            return None
        factory.append(f"    {pvar} = {tvar}.operands[{j}].{path}")
        return pvar, tvar

    def scalar(kind, primary, path, dst, pvar):
        compile_ = _inline_reg if kind == "reg" else _inline_int
        const, wr = compile_(
            primary, tmpl, prod, gen, env, ctx_ref(primary, path, pvar)
        )
        if wr is None:
            return repr(const), None
        return dst, wr

    q = f"_q{t}_{j}"
    if operand.is_address:
        d_expr, d_wr = scalar("int", operand.base, "base", f"d{t}_{j}",
                              q + "d")
        if operand.base_reg is None:
            # dsp(b): single parenthesized part is the base register.
            b_expr, b_wr = scalar("reg", operand.index, "index",
                                  f"b{t}_{j}", q + "b")
            x_expr, x_wr = "0", None
        else:
            x_expr, x_wr = scalar("reg", operand.index, "index",
                                  f"x{t}_{j}", q + "x")
            b_expr, b_wr = scalar("reg", operand.base_reg, "base_reg",
                                  f"b{t}_{j}", q + "b")
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
        from_ctx = ctx_ref(base, "base", q)

        def ref_writer(out, ind):
            if slot is None:
                if from_ctx is None:
                    out(f"{ind}raise CodeGenError({unbound!r})")
                    return
                _read_binding(out, ind, dst, key, unbound,
                              f"ctx._reload({from_ctx[0]}, {dst})")
                v, tv = dst, "_ty"
            else:
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
    v_expr, v_wr = scalar("int", base, "base", f"s{t}_{j}", q)
    if v_wr is None:
        name = f"K{t}_{j}"
        konsts.append(f"    {name} = Imm({v_expr})")
        return None, name

    def imm_writer(out, ind, expr=v_expr, wr=v_wr):
        wr(out, ind, expr)

    return imm_writer, f"Imm({v_expr})"


def _bind_handlers(plan, out) -> None:
    """Factory locals ``h{i}``/``t{i}``: handler and template of each
    semantic-operator step, for the reducer to call."""
    for i, (handler, _, _) in enumerate(plan.exec_steps):
        if handler is not None:
            out(f"    h{i} = plan.exec_steps[{i}][0]")
            out(f"    t{i} = plan.exec_steps[{i}][1]")


# ---- register-allocator calls ----------------------------------------------
#
# The reducers leave every register-state decision to the
# RegisterAllocator (repro.core.codegen.registers): they call its
# pin/allocate/reserve/acquire/release/split_pair/unpin_all where the
# generic reducer does, in the same order.  What the emitter bakes is the
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


def _emit_fast_reducer(plan, gen) -> List[str]:
    """The no-context straight-line reducer for a production without
    semantic-operator handlers (``using`` steps allowed).

    RHS values live in locals; pins, allocation, inline operand
    resolution, emission, and the LHS/release epilogue are all
    unrolled.  Any incoming ``SpilledValue`` falls back to the generic
    ``_reduce`` (reload needs the context machinery).
    """
    prod = plan.prod
    n = plan.nrhs
    is_lambda = plan.lambda_token is not None
    nalloc = len(plan.alloc_steps)

    # Binding environment: RHS positions first (last occurrence wins,
    # matching the bindings-dict build), then allocation results
    # (written over the base bindings in step order), whose value type
    # is static.
    atypes = [_alloc_type(gen, ref.name) for _, ref in plan.alloc_steps]
    env: Dict[Tuple[str, int], Tuple[str, str]] = {}
    for key, pos in plan.binding_refs:
        env[key] = (f"v{pos}", f"tv{pos}")
    for k, (_, ref) in enumerate(plan.alloc_steps):
        env[(ref.name, ref.index)] = (f"a{k}", atypes[k])
    alloc_vars = {f"a{k}": k for k in range(nalloc)}

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
    for i, (_, tmpl, origin) in enumerate(plan.exec_steps):
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
        bout(f"{ind}items.append(Instr({tmpl.op!r}, ({tup}), "
             f"{tmpl.comment!r}))")
        bout(f"{ind}origins[len(items) - 1] = {origin!r}")

    # Epilogue: LHS acquire + RHS/scratch release, then the goto tuple.
    # When the LHS *is* one of this reduction's fresh allocations, the
    # acquire/release pair on it is a net no-op (use count 1 -> 2 -> 1,
    # never 0) and both calls are elided.
    elide = None
    goto: Optional[str] = "lam_goto"
    if not is_lambda:
        slot = env.get(plan.lhs_key)
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
        # Consume the RHS operands and the scratch allocations (paper
        # 4.1 use counting); only handlers can suppress a release.
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
    # SpilledValue operands need the context's reload machinery: the
    # generic _reduce takes the whole reduction.
    if n:
        guards = " or ".join(f"tv{pos} is SpilledValue" for pos in range(n))
        out(f"        if {guards}:")
        out("            return _slow(run, front, plan)")
        out(f"        del stack[-{n}:]")
    out("        alloc = run.alloc")
    out("        alloc.global_index += 1")
    if nalloc:
        # Pins + allocation; without an allocation nothing can evict,
        # so the pins would never be consulted.
        out("        try:")
        pind = "            "
        for pos in range(n):
            _if_reg(out, pind, f"v{pos}", f"tv{pos}", "pin")
        for k, (is_using, ref) in enumerate(plan.alloc_steps):
            _alloc_step(out, pind, f"a{k}", is_using, ref, atypes[k])
        w.extend("    " + line for line in body)
        out("        finally:")
        out("            alloc.unpin_all()")
    else:
        w.extend(body)
    out("    return _reduce")
    out("")
    out("")
    return w


def _push_half_inline(out, i: int, keep: str, tmpl, prod,
                      static=None) -> None:
    """Inline ``semantic_ops._push_half`` (PUSH_ODD / PUSH_EVEN): the
    allocator splits the pair, the pair's release is suppressed, and the
    kept half is prefixed for re-parse.  Messages and the binding key
    are baked from the emission-time template (only the stock handler
    is inlined).  When the operand is a this-reduction allocation local
    (``static``), the binding fetch / reload / type dispatch collapse:
    the local is a pinned PairValue by construction."""
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
    out(f"            _r = alloc.split_pair(_hv, {keep!r})")
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
    _read_binding(
        out, "            ", "_hv", (ref.name, ref.index),
        f"{tmpl.op}: {ref} is unbound in {prod}", f"ctx._reload(_h{i}, _hv)",
    )


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


def _emit_ctx_reducer(plan, gen) -> List[str]:
    """The straight-line reducer for a production with semantic-operator
    handlers or ``need`` steps: the ``EmissionContext`` survives
    (handlers receive it and the allocator's patching hook reaches
    through it), but the step dispatch, pins, allocation requests, and
    epilogue are still unrolled."""
    from repro.core.codegen import semantic_ops as _semops
    from repro.core.speclang.ast import Ref

    prod = plan.prod
    n = plan.nrhs
    is_lambda = plan.lambda_token is not None
    atypes = [_alloc_type(gen, ref.name) for _, ref in plan.alloc_steps]
    # Allocation results live in locals (av{k}) with static value types.
    # Emit steps may read them directly -- bypassing the bindings dict --
    # until the first handler runs: handlers can rebind any key.  Reserve
    # (need) steps disqualify the whole map: a later reserve's shuffle
    # patches bindings, not locals.
    static_env: Dict[Tuple[str, int], Tuple[str, str]] = {}
    if all(is_using for is_using, _ in plan.alloc_steps):
        for k, (_, ref) in enumerate(plan.alloc_steps):
            static_env[(ref.name, ref.index)] = (f"av{k}", atypes[k])

    w: List[str] = []
    out = w.append
    out("def _mk(gen, plan):")
    out("    prod = plan.prod")
    _bind_handlers(plan, out)
    out("    _ECn = EmissionContext.__new__")
    out("    _machine = gen.machine")
    # Stock handlers with fixed, side-effect-transparent bodies are
    # inlined into the reducer instead of dispatched; a machine that
    # overrides one binds another function and keeps the call.
    hinline: Dict[int, Tuple[str, Optional[str]]] = {}
    for i, (h, tmpl, _) in enumerate(plan.exec_steps):
        if h is None:
            continue
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
        elif h is _semops._load_odd:
            opcode = gen.machine.semop_opcodes.get(tmpl.op)
            if ref_ok and opcode is not None and len(tmpl.operands) == 2:
                hinline[i] = ("load_odd", opcode)
    runtime_handlers = any(
        h is not None and i not in hinline
        for i, (h, _, _) in enumerate(plan.exec_steps)
    )
    static_push = any(tag == "push" for tag, _ in hinline.values())
    static_ignore = any(tag == "ignore" for tag, _ in hinline.values())
    konsts: List[str] = []
    factory: List[str] = []
    emit_plans = {}
    lodd_plans = {}
    if static_push:
        factory.append("    cget = gen._code_get")
    hstatic: Dict[int, str] = {}
    for i, (h, tmpl, _) in enumerate(plan.exec_steps):
        if i in hinline:
            tag, arg = hinline[i]
            if tag != "ignore":
                # A pair allocation local, captured before any later
                # handler's static_env clear.
                _hr = tmpl.operands[0].base
                _hs = static_env.get((_hr.name, _hr.index))
                if _hs is not None and _hs[1] == "PairValue":
                    hstatic[i] = _hs[0]
                factory.append(f"    _h{i} = t{i}.operands[0].base")
            if tag == "load_odd":
                factory.append(f"    _xt{i} = plan.exec_steps[{i}][1]")
                lodd_plans[i] = _inline_operand(
                    i, 1, tmpl.operands[1], tmpl, prod, gen, static_env,
                    konsts, factory,
                )
            # Inlined handlers never rebind arbitrary keys (a push/load
            # reload rebinds only its own -- spilled, hence
            # non-allocation -- key), so allocation locals stay valid.
            continue
        if h is not None:
            # A handler may rebind any key: allocation locals are no
            # longer trustworthy for later emit steps.
            static_env = {}
            continue
        factory.append(f"    _xt{i} = plan.exec_steps[{i}][1]")
        emit_plans[i] = [
            _inline_operand(
                i, j, operand, tmpl, prod, gen, static_env, konsts,
                factory,
            )
            for j, operand in enumerate(tmpl.operands)
        ]
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
        # tv{j} is reused by the release epilogue: handlers can't
        # change a value's type.
        for j in range(n):
            out(f"            tv{j} = type(v{j})")
            _if_reg(out, "            ", f"v{j}", f"tv{j}", "pin")
    elif n:
        out("            for value in values:")
        out("                tv = type(value)")
        _if_reg(out, "                ", "value", "tv", "pin")
    for k, (is_using, ref) in enumerate(plan.alloc_steps):
        _alloc_step(out, "            ", f"av{k}", is_using, ref, atypes[k])
        out(f"            _b[({ref.name!r}, {ref.index!r})] = av{k}")
        out(f"            ctx.allocated.append(av{k})")
    # -- the template sequence, unrolled.
    for i, (h, tmpl, origin) in enumerate(plan.exec_steps):
        if h is None:
            pairs = emit_plans[i]
            for writer, _expr in pairs:
                if writer is not None:
                    writer(out, "            ")
            exprs = [expr for _, expr in pairs]
            tup = ", ".join(exprs) + ("," if len(exprs) == 1 else "")
            out(f"            items.append(Instr({tmpl.op!r}, ({tup}), "
                f"{tmpl.comment!r}))")
            out(f"            origins[len(items) - 1] = {origin!r}")
            continue
        spec = hinline.get(i)
        if spec is None:
            out(f"            h{i}(ctx, t{i})")
        elif spec[0] == "ignore":
            out("            ctx.ignore_lhs = True")
        elif spec[0] == "push":
            _push_half_inline(out, i, spec[1], tmpl, prod, hstatic.get(i))
        else:
            _load_odd_inline(
                out, i, spec[1], tmpl, prod, lodd_plans[i], hstatic.get(i),
            )
    # -- epilogue: LHS push-back + RHS/scratch release.  Pushes are the
    # only inlined suppressors; a push of this reduction's own
    # allocation local suppresses a fresh object, never a stack value.
    rhs_suppress = runtime_handlers or any(
        tag == "push" and i not in hstatic
        for i, (tag, _) in hinline.items()
    )
    if is_lambda:
        w.extend(_ctx_releases(rhs_suppress, n))
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
            _if_reg(out, ind, "lhs_value", "tv", "acquire")
        w.extend(_ctx_releases(rhs_suppress, n))
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
    out("            alloc.unpin_all()")
    out("    return _reduce")
    out("")
    out("")
    return w


def _ctx_releases(rhs_suppress: bool, n: int) -> List[str]:
    """RHS-operand + scratch releases (paper 4.1 use counting).

    The suppression check only exists when something could have
    suppressed an *RHS* value: a live semantic-operator handler or an
    inlined push on a dynamic binding."""
    w: List[str] = []
    ind = "            "
    if n:
        if rhs_suppress:
            w.append(f"{ind}suppressed = ctx._suppressed")
        if 1 <= n <= 4:
            values = [(f"v{j}", f"tv{j}") for j in range(n)]
        else:
            w.append(f"{ind}for value in values:")
            w.append(f"{ind}    tv = type(value)")
            values = [("value", "tv")]
            ind += "    "
        for v, tv in values:
            w.append(f"{ind}if {tv} is RegValue or {tv} is PairValue:")
            if rhs_suppress:
                w.append(f"{ind}    if not suppressed or "
                         f"not ctx.is_suppressed({v}):")
                w.append(f"{ind}        alloc.release({v})")
            else:
                w.append(f"{ind}    alloc.release({v})")
    w.append("            for value in ctx.allocated:")
    w.append("                tv = type(value)")
    w.append("                if tv is RegValue or tv is PairValue:")
    w.append("                    alloc.release(value)")
    return w


def emit_module(gen, pid: int) -> str:
    """Source of the reducer factory ``_mk(gen, plan)`` for production
    ``pid`` of ``gen``, choosing the deepest specialization the
    production's shape allows."""
    plan = gen._plans[pid]
    handler_free = all(h is None for h, _, _ in plan.exec_steps)
    lhs_ok = plan.lambda_token is not None or plan.lhs_key is not None
    # NEED (reserve) steps disqualify the context-free path: reserving a
    # busy register shuffles its contents *regardless of pins*, and the
    # resulting _patch_values rebinding only reaches values held in an
    # EmissionContext, not locals.
    using_only = all(is_using for is_using, _ in plan.alloc_steps)
    if handler_free and lhs_ok and using_only:
        lines = _emit_fast_reducer(plan, gen)
    else:
        lines = _emit_ctx_reducer(plan, gen)
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
