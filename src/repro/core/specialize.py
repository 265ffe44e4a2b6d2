"""Build-time specialization: compile the LR tables to a Python module.

The paper's premise is that CoGG is a *generator* -- the tables are the
product.  This module goes one level further in the same spirit: at
table-build time it emits a specialized Python module per (spec,
machine) pair, in which

* the action matrix is a flat tuple-of-tuples of ints indexed by
  ``[state][column]`` with **no dict lookups and no bounds checks** in
  the hot loop (every action is statically validated at emission time),
* each non-wrapper production's reduction plan -- RHS pops, pins,
  ``using``/``need`` allocation with the class name and binding key
  baked in as literals, the template sequence, and the LHS epilogue --
  is unrolled into a straight-line reducer function; productions
  without semantic-operator handlers skip the ``EmissionContext``
  entirely and resolve every template operand inline from locals (the
  interned ``R`` operand table indexed directly, constant operands
  prebuilt and shared), and
* the reduce -> prefix-LHS -> re-shift round-trip of the skeletal
  parser is fused into a direct goto-as-shift: when the LHS's action in
  the uncovered state is a shift, the reducer's result is pushed onto
  the parse stack immediately, skipping the pending-queue round-trip
  and (for chain rules) the ``IFToken`` allocation entirely.

Skipping the ``EmissionContext`` for handler-free productions is safe
because the context exists for two consumers only: semantic-operator
handlers (absent by construction) and the allocator's spill/move
patching hook ``_patch_values`` -- which can never match a binding of
the current reduction, since every register bound during a reduction
(RHS operands and fresh allocations alike) is pinned before anything
can allocate, and pinned registers are never spill victims.  Spilled
*incoming* operands still need the context's reload machinery, so the
fast reducers guard on ``SpilledValue`` and fall back to the
interpreted ``_reduce`` for that reduction.

The generated source is content-addressed and cached next to the
``CoGGart1`` artifact (``<fingerprint40>.coggspec.py``), guarded by a
whole-file checksum, compiled once, and imported on warm start;
:mod:`repro.core.buildstats` counters (``specialize_emits``,
``specialize_cache_hits``, ``specialize_cache_corrupt``) prove zero
regeneration across processes.  Every failure mode -- corrupt file,
stale specializer version, structural mismatch against the live
generator -- degrades to the interpreted table lane with a
``degraded_reason``; specialization is a pure accelerator and never a
correctness dependency.  Output is gated byte-identical against the
interpreted lanes over every bench workload (``repro.bench.speed``
schema 5, ``tests/test_specialize.py``).
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from types import CodeType
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core import buildcache, buildstats
from repro.errors import SpecializeError

#: Bump when the shape of the generated module changes; part of the
#: content address, so old modules are never loaded, just regenerated.
SPECIALIZER_VERSION = 1

#: Embedded magic; a module without it is not ours.
MODULE_MAGIC = "CoGGspec1"

#: The EmissionContext slot layout the ctx reducers' unrolled
#: constructor stores assume.  Factories compare this against the live
#: class and degrade on any drift.
_EC_SLOTS = (
    "gen", "run", "prod", "values", "machine", "alloc", "cse",
    "labels", "buffer", "stats", "ignore_lhs", "prefix", "allocated",
    "_suppressed", "bindings",
)

#: Cache filename suffix (next to the ``.coggart`` artifact).
MODULE_SUFFIX = ".coggspec.py"

#: Action-encoding constants mirrored from :mod:`repro.core.tables`.
_ERROR, _ACCEPT = 0, 1


def enabled() -> bool:
    """Specialization switch (default on): ``REPRO_SPECIALIZE=0`` or
    the ``--no-specialize`` CLI flag turns the lane off."""
    return os.environ.get("REPRO_SPECIALIZE", "1") != "0"


# ---- fingerprinting ---------------------------------------------------------

_DIGEST_CACHE: Dict[str, str] = {}


def _specializer_digest() -> str:
    """SHA-256 over the modules whose behavior the generated code bakes
    in: this specializer, the parser runtime it mirrors, the register
    allocator whose pin/release protocol the fast reducers replicate,
    and the semantic-operator registry its reducers classify against.
    Editing any of them invalidates every cached module."""
    cached = _DIGEST_CACHE.get("digest")
    if cached is not None:
        return cached
    import repro.core.codegen.parser_rt as parser_rt
    import repro.core.codegen.registers as registers
    import repro.core.codegen.semantic_ops as semantic_ops
    import sys

    h = hashlib.sha256()
    for mod in (sys.modules[__name__], parser_rt, registers, semantic_ops):
        h.update(Path(mod.__file__).read_bytes())
    digest = h.hexdigest()
    _DIGEST_CACHE["digest"] = digest
    return digest


def specialize_fingerprint(build_fingerprint: str) -> str:
    """Content address of the specialized module for one build.

    Covers the build fingerprint (spec text, machine, table-builder
    digests -- see :func:`repro.core.buildcache.build_fingerprint`),
    the specializer version, and the specializer-module digests.
    """
    h = hashlib.sha256()
    h.update(MODULE_MAGIC.encode("ascii") + b"\n")
    h.update(build_fingerprint.encode("ascii") + b"\n")
    h.update(str(SPECIALIZER_VERSION).encode("ascii") + b"\n")
    h.update(_specializer_digest().encode("ascii") + b"\n")
    return h.hexdigest()


def module_path(cache_dir: Path, fingerprint: str) -> Path:
    """Where the specialized module for ``fingerprint`` lives."""
    return Path(cache_dir) / f"{fingerprint[:40]}{MODULE_SUFFIX}"


# ---- emission: inline operand resolution ------------------------------------
#
# These helpers mirror parser_rt's _compile_int/_compile_reg/
# _compile_operand closure compilers, but emit *source text* operating
# on the fast reducer's locals instead of closures over ctx.bindings.
# Error messages are reproduced exactly; runtime values are spliced via
# string concatenation so arbitrary spec text never breaks the f-string
# quoting of the generated module.


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


# ---- emission: reducer factories --------------------------------------------


def _mm(pid: int, what: str) -> str:
    return (
        f"specialized module out of date: production {pid} {what} does "
        f"not match the live generator"
    )


def _verify_common(pid: int, plan, steps, out) -> None:
    """Bind-time structural verification shared by every factory: each
    decision baked at emission time is re-checked against the live plan
    once, so a drifted runtime degrades instead of misbehaving."""
    from repro.core.codegen.parser_rt import _MISSING_HANDLER  # noqa: F401

    n = plan.nrhs
    is_lambda = plan.lambda_token is not None
    out(f"    if plan.nrhs != {n} or plan.is_chain != {plan.is_chain!r}:")
    out(f"        raise SpecializeError({_mm(pid, 'arity')!r}, "
        f"reason='plan-mismatch')")
    out(f"    if (plan.lambda_token is not None) != {is_lambda!r}:")
    out(f"        raise SpecializeError({_mm(pid, 'lambda')!r}, "
        f"reason='plan-mismatch')")
    out(f"    if len(plan.exec_steps) != {len(plan.exec_steps)}:")
    out(f"        raise SpecializeError({_mm(pid, 'templates')!r}, "
        f"reason='plan-mismatch')")
    out(f"    if len(plan.alloc_steps) != {len(plan.alloc_steps)}:")
    out(f"        raise SpecializeError({_mm(pid, 'allocation')!r}, "
        f"reason='plan-mismatch')")
    for kind, i, op in steps:
        if kind == "emit":
            out(f"    if plan.exec_steps[{i}][0] is not None:")
            out(f"        raise SpecializeError({_mm(pid, 'templates')!r}, "
                f"reason='plan-mismatch')")
        elif kind == "handler":
            out(f"    h{i} = plan.exec_steps[{i}][0]")
            out(f"    t{i} = plan.exec_steps[{i}][1]")
            out(f"    if h{i} is None or h{i} is _MISSING_HANDLER:")
            out(f"        raise SpecializeError({_mm(pid, 'templates')!r}, "
                f"reason='plan-mismatch')")
        else:
            out(f"    if plan.exec_steps[{i}][0] is not _MISSING_HANDLER:")
            out(f"        raise SpecializeError({_mm(pid, 'templates')!r}, "
                f"reason='plan-mismatch')")
    for i, (is_using, ref) in enumerate(plan.alloc_steps):
        out(f"    if (plan.alloc_steps[{i}][0] != {is_using!r} or "
            f"plan.alloc_steps[{i}][1].name != {ref.name!r} or "
            f"plan.alloc_steps[{i}][1].index != {ref.index!r}):")
        out(f"        raise SpecializeError({_mm(pid, 'allocation')!r}, "
            f"reason='plan-mismatch')")


def _verify_lhs(pid: int, plan, out) -> None:
    out(f"    if (plan.lhs_key != {plan.lhs_key!r} or "
        f"plan.lhs_code != {plan.lhs_code!r} or "
        f"plan.lhs_symbol != {plan.lhs_symbol!r}):")
    out(f"        raise SpecializeError({_mm(pid, 'lhs')!r}, "
        f"reason='plan-mismatch')")


_DELEGATE = [
    "        d = deque()",
    "        _slow(run, d, plan)",
    "        front.extend(reversed(d))",
    "        return None",
]


# ---- inline register-allocator operations -----------------------------------
#
# The emitters below bake RegisterAllocator's pin/acquire/release/
# allocate bodies (repro.core.codegen.registers) into the generated
# reducers as straight-line field operations on the shared RegState
# pool, eliminating the method-call and class-resolution overhead the
# interpreted lane pays per operation.  Fidelity contract:
#
# * every reducer first checks ``alloc.__class__ is _RA`` and delegates
#   the whole reduction to the interpreted ``_reduce`` for any subclass
#   (a subclass's overrides must keep winning);
# * the slow paths stay slow: eviction (no free register), unknown
#   register classes, and non-LRU strategies call the real allocator;
# * registers.py is part of the specializer digest, so editing the
#   allocator invalidates every cached module.
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
    interpreted epilogue's check order.  ``pre`` lines (computing the
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


def _verify_alloc_classes(pid: int, plan, gen, out) -> None:
    """Factory-level checks that the live machine still matches every
    register-class fact baked into the inline allocation scans."""
    from repro.core.machine import ClassKind  # noqa: F401 (doc anchor)

    seen = set()
    for _, ref in plan.alloc_steps:
        name = ref.name
        if name in seen:
            continue
        seen.add(name)
        kind, regs = _alloc_kind(gen, name)
        if kind is None:
            continue
        msg = _mm(pid, f"register class {name!r}")
        out(f"    _c = gen.machine.classes.get({name!r})")
        if kind == "gpr":
            out(f"    if (_c is None or _c.kind is not ClassKind.GPR or")
            out(f"            tuple(_c.allocatable) != {regs!r}):")
        elif kind == "pair":
            out(f"    if (_c is None or _c.kind is not ClassKind.PAIR or")
            out(f"            tuple(_c.allocatable) != {regs!r}):")
        else:
            out("    if _c is None or _c.kind is not ClassKind.CC:")
        out(f"        raise SpecializeError({msg!r}, reason='plan-mismatch')")


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


def _emit_chain_reducer(pid: int, plan, gen) -> List[str]:
    """Chain productions reach their reducer only on the slow path
    (spilled or unbound value): delegate to the interpreted ``_reduce``
    for its reload and error handling."""
    w: List[str] = []
    out = w.append
    out(f"def _mk_{pid}(gen, plan):")
    _verify_common(pid, plan, [], out)
    out("    _slow = gen._reduce")
    out("    def _reduce(run, stack, front):")
    w.extend(_DELEGATE)
    out("    return _reduce")
    out("")
    out("")
    return w


def _emit_fast_reducer(pid: int, plan, gen, steps) -> List[str]:
    """The no-context straight-line reducer for a production without
    semantic-operator handlers (allocation steps allowed).

    RHS values live in locals; pins, ``using``/``need`` allocation,
    inline operand resolution, emission, and the LHS/release epilogue
    are all unrolled.  Any incoming ``SpilledValue`` falls back to the
    interpreted ``_reduce`` (reload needs the context machinery).
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
    out(f"def _mk_{pid}(gen, plan):")
    out("    prod = plan.prod")
    _verify_common(pid, plan, steps, out)
    out(f"    if plan.needs_pins != {bool(nalloc)!r}:")
    out(f"        raise SpecializeError({_mm(pid, 'pins')!r}, "
        f"reason='plan-mismatch')")
    out(f"    if plan.binding_refs != {plan.binding_refs!r}:")
    out(f"        raise SpecializeError({_mm(pid, 'bindings')!r}, "
        f"reason='plan-mismatch')")
    _verify_alloc_classes(pid, plan, gen, out)
    if is_lambda:
        out("    lam_token = plan.lambda_token")
        out("    lam_goto = (lam_token.code, lam_token.symbol, "
            "lam_token.sem)")
    else:
        _verify_lhs(pid, plan, out)
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
    # SpilledValue operands need the context's reload machinery, and a
    # non-standard allocator must keep its overrides: both delegate the
    # whole reduction to the interpreted _reduce.
    guards = [f"tv{pos} is SpilledValue" for pos in range(n)]
    if n or nalloc:
        out("        alloc = run.alloc")
        guards.append("alloc.__class__ is not _RA")
    if guards:
        out(f"        if {' or '.join(guards)}:")
        out("            d = deque()")
        out("            _slow(run, d, plan)")
        out("            front.extend(reversed(d))")
        out("            return None")
    if n:
        out(f"        del stack[-{n}:]")
    if not (n or nalloc):
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
    emission-time template; the factory pins the live handler to the
    stock function, so drift degrades instead of diverging.  When the
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
    """Inline ``semantic_ops._load_odd``: the mapped opcode is baked
    (the factory re-checks the machine's mapping), the pair binding is
    fetched through the shared prelude, and the source operand reuses
    the emit-step operand writers.  No origin tag: the interpreted
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


def _emit_ctx_reducer(pid: int, plan, gen, steps) -> List[str]:
    """The straight-line reducer for a production with semantic-operator
    handlers: the ``EmissionContext`` survives (handlers receive it and
    the allocator's patching hook reaches through it), but the step
    dispatch, pins, allocation scans, and epilogue are still unrolled
    with the allocator's fast paths inlined."""
    from repro.core.codegen import semantic_ops as _semops
    from repro.core.speclang.ast import Ref

    prod = plan.prod
    n = plan.nrhs
    has_handlers = any(kind == "handler" for kind, _, _ in steps)
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
    out(f"def _mk_{pid}(gen, plan):")
    out("    prod = plan.prod")
    _verify_common(pid, plan, steps, out)
    out("    if not plan.needs_pins:")
    out(f"        raise SpecializeError({_mm(pid, 'pins')!r}, "
        f"reason='plan-mismatch')")
    _verify_alloc_classes(pid, plan, gen, out)
    # The context is built with __new__ + explicit slot stores, so the
    # slot layout and binding positions the stores assume must still be
    # the live ones; any drift degrades to the interpreted lane.
    out(f"    if EmissionContext.__slots__ != {_EC_SLOTS!r}:")
    out(f"        raise SpecializeError({_mm(pid, 'ctx-slots')!r}, "
        f"reason='plan-mismatch')")
    out(f"    if tuple(plan.binding_refs) != "
        f"{tuple(plan.binding_refs)!r}:")
    out(f"        raise SpecializeError({_mm(pid, 'bindings')!r}, "
        f"reason='plan-mismatch')")
    out("    _ECn = EmissionContext.__new__")
    out("    _machine = gen.machine")
    # Opcode templates are inlined rather than dispatched through the
    # plan's emit closures; exec step i's template is the i-th
    # non-using/need entry of the template list (mirrors _ProdPlan).
    exec_tmpls = [
        t for t in prod.templates if t.op not in ("using", "need")
    ]
    # Stock handlers with fixed, side-effect-transparent bodies are
    # inlined into the reducer instead of dispatched: the factory
    # verifies the live plan still binds the exact semantic_ops
    # function (an override degrades the whole module to the
    # interpreted lane via plan-mismatch, never misbehaves).
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
    _INLINE_FNAME = {
        "ignore": "h_ignore_lhs",
        "modifies": "h_modifies",
        "load_odd": "_load_odd",
    }
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
            fname = _INLINE_FNAME.get(tag) or f"h_push_{arg}"
            factory.append(f"    if h{i} is not _SEMOPS.{fname}:")
            factory.append(
                f"        raise SpecializeError("
                f"{_mm(pid, 'handlers')!r}, reason='plan-mismatch')"
            )
            tmpl = exec_tmpls[i]
            if tag in ("push", "modifies", "load_odd"):
                factory.append(
                    f"    if t{i}.op != {tmpl.op!r} or not t{i}.operands:"
                )
                factory.append(
                    f"        raise SpecializeError("
                    f"{_mm(pid, 'templates')!r}, reason='plan-mismatch')"
                )
                factory.append(f"    _h{i} = t{i}.operands[0].base")
            if tag == "load_odd":
                factory.append(
                    f"    if (len(t{i}.operands) != 2 or "
                    f"gen.machine.semop_opcodes.get({tmpl.op!r}) "
                    f"!= {arg!r}):"
                )
                factory.append(
                    f"        raise SpecializeError("
                    f"{_mm(pid, 'templates')!r}, reason='plan-mismatch')"
                )
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
        factory.append(
            f"    if _xt{i}.op != {tmpl.op!r} or "
            f"len(_xt{i}.operands) != {len(tmpl.operands)}:"
        )
        factory.append(
            f"        raise SpecializeError({_mm(pid, 'templates')!r}, "
            f"reason='plan-mismatch')"
        )
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
        _verify_lhs(pid, plan, out)
        out("    lhs_ref = prod.lhs_ref")
        out("    first_tmpl = plan.first_tmpl")
    out("    _slow = gen._reduce")

    out("    def _reduce(run, stack, front):")
    out("        alloc = run.alloc")
    out("        if alloc.__class__ is not _RA:")
    out("            d = deque()")
    out("            _slow(run, d, plan)")
    out("            front.extend(reversed(d))")
    out("            return None")
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


def _emit_reducer(pid: int, plan, gen) -> List[str]:
    """Source lines of the reducer factory for one non-wrapper
    production, choosing the deepest specialization the production's
    shape allows."""
    from repro.core.codegen.parser_rt import _MISSING_HANDLER

    steps = []  # ("emit", i, None) | ("handler", i, None) | ("missing", i, op)
    for i, (handler, payload) in enumerate(plan.exec_steps):
        if handler is None:
            steps.append(("emit", i, None))
        elif handler is _MISSING_HANDLER:
            steps.append(("missing", i, payload.op))
        else:
            steps.append(("handler", i, None))
    if plan.is_chain:
        return _emit_chain_reducer(pid, plan, gen)
    handler_free = all(kind == "emit" for kind, _, _ in steps)
    lhs_ok = plan.lambda_token is not None or plan.lhs_key is not None
    # NEED (reserve) steps disqualify the context-free path: reserving a
    # busy register shuffles its contents *regardless of pins*, and the
    # resulting _patch_values rebinding only reaches values held in an
    # EmissionContext, not locals.
    using_only = all(is_using for is_using, _ in plan.alloc_steps)
    if handler_free and lhs_ok and using_only:
        return _emit_fast_reducer(pid, plan, gen, steps)
    return _emit_ctx_reducer(pid, plan, gen, steps)


def emit_module(build, fingerprint: str) -> str:
    """Generate the specialized module's source for one build.

    Every action in the (dense) matrix is validated here, so the
    generated hot loop carries **no** per-step shift/reduce bounds
    checks; only the pops-below-bottom guard (reachable from a
    malformed IF stream, not just a corrupt table) survives, hoisted to
    once per reduction.
    """
    gen = build.code_generator
    if gen is None:
        raise SpecializeError(
            "build carries no code generator to specialize",
            reason="no-generator",
        )
    tables = build.tables
    plans = gen._plans
    nstates = tables.nstates
    nsymbols = tables.nsymbols
    nprods = len(plans)
    for state, row in enumerate(tables.matrix):
        if len(row) != nsymbols:
            raise SpecializeError(
                f"emit: action row {state} has {len(row)} columns, "
                f"expected {nsymbols}",
                reason="bad-tables",
            )
        for col, action in enumerate(row):
            if action in (_ERROR, _ACCEPT):
                continue
            if action & 1:
                if (action - 3) >> 1 >= nprods:
                    raise SpecializeError(
                        f"emit: state {state} col {col} reduces by "
                        f"unknown production",
                        reason="bad-tables",
                    )
            elif (action - 2) >> 1 >= nstates or action < 2:
                raise SpecializeError(
                    f"emit: state {state} col {col} shifts to "
                    f"unknown state",
                    reason="bad-tables",
                )

    kinds = tuple(
        0 if p.wrapper_token is not None else (1 if p.is_chain else 2)
        for p in plans
    )
    nrhs = tuple(p.nrhs for p in plans)

    w: List[str] = []
    out = w.append
    out('"""Specialized table-driven code generator (machine-generated).')
    out("")
    out(f"Emitted by repro.core.specialize v{SPECIALIZER_VERSION} for one")
    out("(spec, machine) build; do not edit.  The interpreted lane in")
    out("repro.core.codegen.parser_rt is the behavioral reference.")
    out('"""')
    out("")
    out("from collections import deque")
    out("")
    out("from repro.core.grammar import LAMBDA_SYMBOL")
    out("from repro.core.machine import ClassKind")
    out("from repro.core.codegen.emitter import (")
    out("    Imm, Instr, Mem, R, R_INTERNED,")
    out(")")
    out("from repro.core.codegen.operand import (")
    out("    AttrValue, CCValue, LambdaValue, PairValue, RegValue,")
    out("    SpilledValue,")
    out(")")
    out("from repro.core.codegen.parser_rt import (")
    out("    DEFAULT_GUARDS, EmissionContext, GeneratedCode,")
    out("    _MISSING_HANDLER, _Run,")
    out(")")
    out("from repro.core.codegen.registers import "
        "RegisterAllocator as _RA")
    out("from repro.core.codegen import semantic_ops as _SEMOPS")
    out("from repro.errors import (")
    out("    ChainLoopError, CodeGenError, SpecializeError, StepBudgetError,")
    out(")")
    out("from repro.ir.linear import IFToken")
    out("")
    out("_NRT = len(R_INTERNED)")
    out("")
    out(f'MAGIC = "{MODULE_MAGIC}"')
    out(f"SPECIALIZER_VERSION = {SPECIALIZER_VERSION}")
    out(f'FINGERPRINT = "{fingerprint}"')
    out(f"NSTATES = {nstates}")
    out(f"NSYMBOLS = {nsymbols}")
    out(f"NPRODUCTIONS = {nprods}")
    out(f"SYMBOLS = {tuple(tables.symbols)!r}")
    out("")
    out("#: 0 = wrapper, 1 = chain, 2 = full reduction plan.")
    out(f"KINDS = {kinds!r}")
    out(f"NRHS = {nrhs!r}")
    out("")
    out("#: The dense action matrix as flat int tuples: ERROR=0, ACCEPT=1,")
    out("#: even>=2 shifts to (a-2)>>1, odd>=3 reduces by (a-3)>>1.  All")
    out("#: entries pre-validated at emission; the loop indexes blind.")
    out("ACTIONS = (")
    for row in tables.matrix:
        out(f"    {tuple(row)!r},")
    out(")")
    out("")
    out("")
    for pid, plan in enumerate(plans):
        if kinds[pid] != 0:
            w.extend(_emit_reducer(pid, plan, gen))
    factories = ", ".join(
        "None" if kinds[pid] == 0 else f"_mk_{pid}"
        for pid in range(nprods)
    )
    out(f"FACTORIES = ({factories}{',' if nprods == 1 else ''})")
    out("")
    out("")
    w.extend(_ENGINE_SOURCE.splitlines())
    source = "\n".join(w) + "\n"
    checksum = hashlib.sha256(source.encode("utf-8")).hexdigest()
    return source + f'CHECKSUM = "{checksum}"\n'


# The bind()/generate() engine is identical for every build (all
# per-build facts live in the module constants above), so it ships as a
# literal block.  It mirrors repro.core.codegen.parser_rt's interpreted
# loop exactly -- same watchdog bookkeeping, same error messages, same
# annotation points -- with three departures that change no observable
# behavior: the pending deque becomes an index into the input list plus
# a LIFO list of synthetic (prefixed) tokens, shift-value construction
# is dispatched through a per-column table built at bind time, and
# reduce+goto-shift pairs execute as one fused iteration (steps and
# chain_steps advance by 2 to keep the watchdog accounting aligned).
_ENGINE_SOURCE = '''\
def bind(gen):
    """Verify this module against a live generator and return its
    specialized ``generate`` engine.

    Raises :class:`repro.errors.SpecializeError` on any mismatch --
    different symbol interning, table shape, or production plans --
    so a stale module degrades instead of miscompiling.
    """
    tables = gen.tables
    if tuple(tables.symbols) != SYMBOLS:
        raise SpecializeError(
            "specialized module out of date: symbol interning differs "
            "from the live generator", reason="symbol-mismatch",
        )
    if tables.nstates != NSTATES:
        raise SpecializeError(
            "specialized module out of date: table shape differs from "
            "the live generator", reason="shape-mismatch",
        )
    plans = gen._plans
    if len(plans) != NPRODUCTIONS:
        raise SpecializeError(
            "specialized module out of date: production count differs "
            "from the live generator", reason="plan-mismatch",
        )
    for pid in range(NPRODUCTIONS):
        plan = plans[pid]
        kind = (
            0 if plan.wrapper_token is not None
            else (1 if plan.is_chain else 2)
        )
        if kind != KINDS[pid] or plan.nrhs != NRHS[pid]:
            raise SpecializeError(
                "specialized module out of date: production plans "
                "differ from the live generator", reason="plan-mismatch",
            )
    reducers = tuple(
        None if KINDS[pid] == 0 else FACTORIES[pid](gen, plans[pid])
        for pid in range(NPRODUCTIONS)
    )
    lhs_codes = tuple(p.lhs_code for p in plans)
    lhs_syms = tuple(p.lhs_symbol for p in plans)
    wrapper_tokens = tuple(p.wrapper_token for p in plans)
    wrapper_sems = tuple(
        t.sem if t is not None else None for t in wrapper_tokens
    )
    # Per-column shift-value dispatch, built from the live machine:
    # None = plain attribute column; else (tag, members) with
    # 0 = single register class, 1 = pair class, 2 = condition code,
    # 3 = lambda.  Malformed register tokens route through the
    # interpreted _shift_value for its exact diagnostics.
    machine = gen.machine
    sfast = []
    for sym in SYMBOLS:
        cls = machine.register_class(sym)
        if cls is not None:
            if cls.kind is ClassKind.CC:
                sfast.append((2, None))
            elif cls.kind is ClassKind.PAIR:
                sfast.append((1, frozenset(cls.members)))
            else:
                sfast.append((0, frozenset(cls.members)))
        elif sym == LAMBDA_SYMBOL:
            sfast.append((3, None))
        else:
            sfast.append(None)
    sfast = tuple(sfast)
    end_token = gen._end_token
    code_get = gen._code_get
    shift_value = gen._shift_value
    annotate = gen._annotate
    signal_error = gen._signal_error

    def generate(tokens, frame=None, guards=None, stats=None):
        run = _Run(gen, frame, stats=stats)
        toks = tokens if type(tokens) is list else list(tokens)
        for t in toks:
            if t.code is None:
                toks = [
                    t if t.code is not None
                    else IFToken(
                        t.symbol, t.value, t.sem, code_get(t.symbol, -1)
                    )
                    for t in toks
                ]
                break
        ntoks = len(toks)
        i = 0
        front = []  # synthetic (prefixed) tokens, consumed LIFO
        stack = run.stack
        stack.append((0, "<bottom>", None))
        reductions = 0
        guards = guards if guards is not None else DEFAULT_GUARDS
        budget = guards.step_budget
        if budget is None:
            budget = max(10_000, 64 * (ntoks + 1))
        chain_limit = guards.chain_limit
        steps = 0
        chain_steps = 0
        min_depth = 1
        actions = ACTIONS
        kinds_t = KINDS
        nrhs_t = NRHS
        reducers_t = reducers
        sfast_t = sfast
        alloc = run.alloc
        state = 0
        row = actions[0]

        while True:
            if steps >= budget:
                raise StepBudgetError(
                    f"parse exceeded its step budget of {budget} "
                    f"(state {state}, {ntoks - i + len(front)} tokens "
                    f"unconsumed): corrupted tables or malformed IF?",
                    budget=budget,
                )
            steps += 1
            if chain_steps >= chain_limit:
                recent = " ".join(sym for _, sym, _ in stack[-8:])
                raise ChainLoopError(
                    f"chain-rule loop: {chain_steps} steps without "
                    f"consuming input in state {state} "
                    f"(stack ... {recent})",
                    state=state,
                    stack=[(s, sym) for s, sym, _ in stack],
                    steps=chain_steps,
                )
            lookahead = front[-1] if front else (
                toks[i] if i < ntoks else end_token
            )
            col = lookahead.code
            action = row[col] if col >= 0 else 0
            if action >= 2:
                if not action & 1:
                    # SHIFT (even >= 2); pre-validated, no bounds check.
                    state = (action - 2) >> 1
                    row = actions[state]
                    sem = lookahead.sem
                    if sem is not None:
                        value = sem
                    else:
                        sf = sfast_t[col]
                        if sf is None:
                            v = lookahead.value
                            value = (
                                AttrValue(lookahead.symbol, v)
                                if v is not None else None
                            )
                        else:
                            tag = sf[0]
                            if tag == 0:
                                v = lookahead.value
                                if v is not None and v in sf[1]:
                                    value = RegValue(v, lookahead.symbol)
                                else:
                                    try:
                                        value = shift_value(lookahead)
                                    except CodeGenError as error:
                                        raise annotate(
                                            error, run, lookahead
                                        )
                            elif tag == 2:
                                value = CCValue()
                            elif tag == 1:
                                v = lookahead.value
                                if v is not None and v in sf[1]:
                                    value = PairValue(v, lookahead.symbol)
                                else:
                                    try:
                                        value = shift_value(lookahead)
                                    except CodeGenError as error:
                                        raise annotate(
                                            error, run, lookahead
                                        )
                            else:
                                value = LambdaValue()
                    stack.append((state, lookahead.symbol, value))
                    if front:
                        del front[-1]
                        chain_steps += 1
                    elif i < ntoks:
                        i += 1
                        chain_steps = 0
                        min_depth = len(stack)
                    else:
                        chain_steps += 1
                    continue
                # REDUCE (odd >= 3); the production index is
                # pre-validated, only the stack-bottom guard remains.
                pid = (action - 3) >> 1
                if nrhs_t[pid] >= len(stack):
                    raise annotate(
                        CodeGenError(
                            f"corrupt parse table: reduce by production "
                            f"{pid} pops below the stack bottom"
                        ),
                        run, lookahead,
                    )
                # Each reduction kind carries its own fused goto-as-shift
                # epilogue: the reduce iteration and the synthetic
                # re-shift iteration of the interpreted lane collapse
                # into one (steps and chain_steps advance by two to keep
                # the watchdogs aligned), and the chain/wrapper paths
                # never build an intermediate tuple.  A non-shift action
                # on the LHS (error/accept/reduce) falls back to the
                # generic prefix so diagnostics and bookkeeping match
                # the interpreted lane exactly.
                kind = kinds_t[pid]
                if kind == 2:
                    try:
                        r = reducers_t[pid](run, stack, front)
                    except CodeGenError as error:
                        raise annotate(error, run, lookahead)
                    reductions += 1
                    if type(r) is tuple:
                        code2, sym2, value2 = r
                        depth = len(stack)
                        a2 = actions[stack[-1][0]][code2] if code2 >= 0 else 0
                        if a2 >= 2 and not a2 & 1:
                            state = (a2 - 2) >> 1
                            row = actions[state]
                            stack.append((state, sym2, value2))
                            steps += 1
                            if depth < min_depth:
                                min_depth = depth
                                chain_steps = 1
                            else:
                                chain_steps += 2
                            continue
                        front.append(IFToken(sym2, None, value2, code2))
                elif kind == 1:
                    # Chain fast path: the value rides through under the
                    # LHS symbol; spilled/unbound values take the full
                    # reducer for its reload and error handling.
                    value = stack[-1][2]
                    if value is not None and type(value) is not SpilledValue:
                        del stack[-1:]
                        alloc.global_index += 1
                        reductions += 1
                        code2 = lhs_codes[pid]
                        depth = len(stack)
                        a2 = actions[stack[-1][0]][code2] if code2 >= 0 else 0
                        if a2 >= 2 and not a2 & 1:
                            state = (a2 - 2) >> 1
                            row = actions[state]
                            stack.append((state, lhs_syms[pid], value))
                            steps += 1
                            if depth < min_depth:
                                min_depth = depth
                                chain_steps = 1
                            else:
                                chain_steps += 2
                            continue
                        front.append(
                            IFToken(lhs_syms[pid], None, value, code2)
                        )
                    else:
                        try:
                            reducers_t[pid](run, stack, front)
                        except CodeGenError as error:
                            raise annotate(error, run, lookahead)
                        reductions += 1
                else:
                    # Wrapper: pop the RHS, push back the shared token.
                    npop = nrhs_t[pid]
                    if npop:
                        del stack[-npop:]
                    reductions += 1
                    code2 = lhs_codes[pid]
                    depth = len(stack)
                    a2 = actions[stack[-1][0]][code2] if code2 >= 0 else 0
                    if a2 >= 2 and not a2 & 1:
                        state = (a2 - 2) >> 1
                        row = actions[state]
                        stack.append(
                            (state, lhs_syms[pid], wrapper_sems[pid])
                        )
                        steps += 1
                        if depth < min_depth:
                            min_depth = depth
                            chain_steps = 1
                        else:
                            chain_steps += 2
                        continue
                    front.append(wrapper_tokens[pid])
                state = stack[-1][0]
                row = actions[state]
                if len(stack) < min_depth:
                    min_depth = len(stack)
                    chain_steps = 0
                else:
                    chain_steps += 1
                continue
            if action == 1:
                if front or i < ntoks:
                    raise annotate(
                        CodeGenError(
                            "accepted before the IF stream was exhausted"
                        ),
                        run, lookahead,
                    )
                break
            signal_error(run, lookahead)

        return GeneratedCode(
            buffer=run.buffer,
            labels=run.labels,
            cse=run.cse,
            stats=run.stats,
            reductions=reductions,
        )

    return generate
'''


# ---- loading ----------------------------------------------------------------


def _chunks(source: str):
    """Split a module at its top-level ``def`` lines, yielding each
    chunk with the 1-based line it starts on."""
    start, line = 0, 1
    while True:
        cut = source.find("\ndef ", start)
        if cut < 0:
            yield line, source[start:]
            return
        yield line, source[start:cut + 1]
        line += source.count("\n", start, cut + 1)
        start = cut + 1


def _relocate(code: CodeType, shift: int) -> CodeType:
    """``code`` with every nested code object moved ``shift`` lines down."""
    if not shift:
        return code
    consts = tuple(
        _relocate(c, shift) if isinstance(c, CodeType) else c
        for c in code.co_consts
    )
    return code.replace(
        co_firstlineno=code.co_firstlineno + shift, co_consts=consts
    )


def load_module(source: str, expected_fingerprint: str) -> Dict[str, Any]:
    """Compile + exec a specialized module's source, verifying the
    whole-file checksum, magic, version, and content address.

    The module is compiled one top-level definition at a time: one
    ``compile()`` of the whole 1.6 MB source holds its entire AST at
    once (a ~119 MB peak), one definition's AST is a few MB.  Chunks
    keep their line numbers in the file, and every chunk compiles
    before any chunk runs.

    Any damage -- truncation, bit flips, a stale specializer version, a
    module for a different build -- raises a typed
    :class:`~repro.errors.SpecializeError`; the caller deletes the file
    and regenerates (mirroring the ``CoGGart1`` corrupt-artifact path).
    """
    marker = '\nCHECKSUM = "'
    cut = source.rfind(marker)
    if cut < 0:
        raise SpecializeError(
            "specialized module is truncated: no checksum line",
            reason="truncated",
        )
    body = source[: cut + 1]
    recorded = source[cut + len(marker):].split('"', 1)[0]
    actual = hashlib.sha256(body.encode("utf-8")).hexdigest()
    if recorded != actual:
        raise SpecializeError(
            "specialized module failed its whole-file checksum",
            reason="bad-checksum",
        )
    filename = f"<coggspec {expected_fingerprint[:12]}>"
    codes = []
    try:
        for line, chunk in _chunks(source):
            codes.append(
                _relocate(compile(chunk, filename, "exec"), line - 1)
            )
    except (SyntaxError, ValueError) as error:
        raise SpecializeError(
            f"specialized module does not compile: {error}",
            reason="syntax",
        )
    namespace: Dict[str, Any] = {
        "__name__": f"repro_coggspec_{expected_fingerprint[:12]}",
    }
    try:
        for code in codes:
            exec(code, namespace)
    except SpecializeError:
        raise
    except Exception as error:  # a damaged body can raise anything
        raise SpecializeError(
            f"specialized module failed to execute: "
            f"{type(error).__name__}: {error}",
            reason="exec",
        )
    if namespace.get("MAGIC") != MODULE_MAGIC:
        raise SpecializeError(
            "specialized module carries the wrong magic",
            reason="bad-magic",
        )
    if namespace.get("SPECIALIZER_VERSION") != SPECIALIZER_VERSION:
        raise SpecializeError(
            f"specialized module was emitted by specializer "
            f"v{namespace.get('SPECIALIZER_VERSION')}, this is "
            f"v{SPECIALIZER_VERSION}",
            reason="stale-version",
        )
    if namespace.get("FINGERPRINT") != expected_fingerprint:
        raise SpecializeError(
            "specialized module belongs to a different build",
            reason="stale-fingerprint",
        )
    if not callable(namespace.get("bind")):
        raise SpecializeError(
            "specialized module has no bind() entry point",
            reason="no-bind",
        )
    return namespace


def build_engine(build) -> Callable:
    """Emit + bind a specialized engine in memory (no cache file).

    Used by the bench harness and tests; raises
    :class:`~repro.errors.SpecializeError` on any failure.
    """
    fingerprint = hashlib.sha256(b"in-memory").hexdigest()
    source = emit_module(build, fingerprint)
    namespace = load_module(source, fingerprint)
    return namespace["bind"](build.code_generator)


# ---- the buildcache attach hook ---------------------------------------------


def attach(build, cache_dir, build_fingerprint: str) -> Dict[str, Any]:
    """Attach a specialized engine to ``build``'s code generator,
    emitting or loading the cached module next to the artifact.

    Called by :func:`repro.core.buildcache.cached_build` on both the
    hit and miss paths.  Never raises: every failure degrades to the
    interpreted lane, recording ``specialize_degraded_reason`` on the
    generator and bumping the ``specialize_degraded`` counter.
    """
    gen = build.code_generator
    info: Dict[str, Any] = {"attached": False}
    if gen is None or not enabled():
        return info
    fingerprint = specialize_fingerprint(build_fingerprint)
    path = module_path(cache_dir, fingerprint)
    info["fingerprint"] = fingerprint
    info["path"] = str(path)
    source: Optional[str] = None
    namespace: Optional[Dict[str, Any]] = None
    decodable = True
    try:
        source = path.read_text(encoding="utf-8")
    except OSError:
        source = None
    except UnicodeDecodeError:
        # Bytes that are not even UTF-8 any more: corruption, same as
        # a failed checksum.
        source = None
        decodable = False
    if source is not None:
        try:
            namespace = load_module(source, fingerprint)
            buildstats.bump("specialize_cache_hits")
        except SpecializeError:
            namespace = None
    if not decodable or (source is not None and namespace is None):
        # Corrupt / stale cached module: delete and regenerate,
        # exactly like a corrupt CoGGart1 artifact.
        buildstats.bump("specialize_cache_corrupt")
        try:
            path.unlink()
        except OSError:
            pass
    if namespace is None:
        try:
            source = emit_module(build, fingerprint)
            namespace = load_module(source, fingerprint)
        except SpecializeError as error:
            gen.specialize_degraded_reason = str(error)
            buildstats.bump("specialize_degraded")
            info["degraded_reason"] = str(error)
            return info
        buildstats.bump("specialize_emits")
        try:
            buildcache._write_atomic(path, source.encode("utf-8"))
        except OSError:
            pass  # an unwritable cache dir costs a re-emit, nothing more
    try:
        engine = namespace["bind"](gen)
    except SpecializeError as error:
        gen.specialize_degraded_reason = str(error)
        buildstats.bump("specialize_degraded")
        info["degraded_reason"] = str(error)
        return info
    gen.specialized = engine
    gen.specialize_info = info
    info["attached"] = True
    return info
