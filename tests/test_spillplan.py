"""Tests: the -O3 lane -- available expressions, global CSE, and the
liveness-driven spill planner.

Covers the solver (fact generation, kills, the private-slot carve-out),
the two ``g_cse_*`` global passes and their level gate, directive
derivation (dead-after-here victim preference, dead-value and
clean-value store skipping, the CSE and keep cases), plan application
and guard degradation in the allocator, the probe/plan driver end to
end on the register-pressure workload, the liveness-vs-LRU differential
across every bench workload, and the compiler/service plumbing for
``opt_level=3``.  Fact-integrity failures are covered by
``test_degradation_contract``.
"""

import copy

import pytest

from repro.core.codegen.emitter import CodeBuffer, Instr, Mem, R
from repro.core.codegen.registers import SpillDirective, SpillEvent
from repro.errors import BadRequestError, ReproError
from repro.machines.s370.spec import machine_description
from repro.opt import dataflow as D
from repro.opt import spillplan
from repro.opt.cfg import build_cfg
from repro.opt.globalopt import run_global
from repro.opt.spillplan import build_plan, generate_with_liveness
from repro.pascal.compiler import (
    cached_build,
    compile_source,
    default_opt_level,
)
from repro.bench import workloads as W

ENC = machine_description().encoder

VAR_A = Mem(100, 0, 11)
VAR_B = Mem(104, 0, 11)
VAR_C = Mem(108, 0, 11)
SLOT = Mem(3072, 0, 13)


def buf(items):
    buffer = CodeBuffer()
    buffer.items = list(items)
    return buffer


def cfg_of(items):
    cfg = build_cfg(buf(items), ENC)
    assert cfg.ok
    return cfg


def facts(items):
    cfg = cfg_of(items)
    live = D.liveness(cfg, nregs=16)
    exprs = D.available_exprs(cfg, ENC.expression_ops())
    return cfg, live, exprs


# ---------------------------------------------------------------------------
# Available expressions: the seventh solver instance.
# ---------------------------------------------------------------------------


class TestAvailableExprs:
    def test_load_generates_a_fact(self):
        cfg = cfg_of([Instr("l", (R(5), VAR_A))])
        avail = D.available_exprs(cfg, ENC.expression_ops())
        [(key, reads, dst)] = avail.exprs_out[0]
        assert key[0] == "l"
        assert dst == 5

    def test_aliasing_store_kills(self):
        cfg = cfg_of([
            Instr("l", (R(5), VAR_A)),
            Instr("st", (R(6), VAR_A)),
        ])
        avail = D.available_exprs(cfg, ENC.expression_ops())
        assert avail.exprs_out[0] == frozenset()

    def test_private_store_spares_disjoint_facts(self):
        items = [
            Instr("l", (R(5), VAR_A)),
            Instr("st", (R(6), SLOT)),  # base 13 vs 11: may-alias
        ]
        cfg = cfg_of(items)
        conservative = D.available_exprs(cfg, ENC.expression_ops())
        assert conservative.exprs_out[0] == frozenset()
        private = D.available_exprs(
            cfg, ENC.expression_ops(),
            private=frozenset({(13, 0, 3072, 4)}),
        )
        assert len(private.exprs_out[0]) == 1

    def test_redefining_dst_kills(self):
        cfg = cfg_of([
            Instr("l", (R(5), VAR_A)),
            Instr("ar", (R(5), R(6))),
        ])
        avail = D.available_exprs(cfg, ENC.expression_ops())
        assert avail.exprs_out[0] == frozenset()


# ---------------------------------------------------------------------------
# Global CSE: the -O3 passes of the global optimizer.
# ---------------------------------------------------------------------------


def _globalopt(items, level):
    class Holder:
        pass

    generated = Holder()
    generated.buffer = buf(items)
    return run_global(generated, ENC, level=level), generated.buffer


class TestGlobalCse:
    RECOMPUTE = [
        Instr("l", (R(5), VAR_A)),
        Instr("st", (R(5), VAR_C)),
        Instr("l", (R(5), VAR_A)),  # same value, same register
        Instr("st", (R(5), VAR_B)),
    ]

    def test_same_register_recompute_deleted(self):
        result, buffer = _globalopt(self.RECOMPUTE, level=3)
        assert result.hits["g_cse_elim"] == 1
        assert sum(1 for i in buffer.items
                   if isinstance(i, Instr) and i.opcode == "l") == 1

    def test_gated_below_level_3(self):
        result, buffer = _globalopt(self.RECOMPUTE, level=2)
        assert result.hits["g_cse_elim"] == 0

    def test_different_register_becomes_copy(self):
        items = [
            Instr("l", (R(5), VAR_A)),
            Instr("st", (R(5), VAR_C)),
            Instr("l", (R(6), VAR_A)),
            Instr("ar", (R(6), R(5))),
            Instr("st", (R(6), VAR_B)),
        ]
        result, buffer = _globalopt(items, level=3)
        assert result.hits["g_cse_copy"] == 1
        copies = [i for i in buffer.items
                  if isinstance(i, Instr) and i.opcode == "lr"]
        assert copies and copies[0].operands == (R(6), R(5))

    def test_intervening_store_blocks_the_cse(self):
        items = [
            Instr("l", (R(5), VAR_A)),
            Instr("st", (R(5), VAR_A)),  # rewrites the home
            Instr("l", (R(5), VAR_A)),
        ]
        result, _buffer = _globalopt(items, level=3)
        assert result.hits["g_cse_elim"] == 0
        assert result.hits["g_cse_copy"] == 0


# ---------------------------------------------------------------------------
# Directive derivation: the planner's decision kernel.
# ---------------------------------------------------------------------------


def _event(store_index, victim=5, candidates=((5, 0),), **kw):
    defaults = dict(
        ordinal=0, guard_index=10, pool="r", cls_nt="r",
        victim=victim, candidates=tuple(candidates),
        store_index=store_index, scratch=(3072, 13),
    )
    defaults.update(kw)
    return SpillEvent(**defaults)


class TestDerive:
    def test_dead_after_here_candidate_preferred(self):
        cfg, live, exprs = facts([
            Instr("l", (R(5), VAR_A)),
            Instr("l", (R(6), VAR_B)),
            Instr("st", (R(5), SLOT)),   # probe evicts r5...
            Instr("ar", (R(4), R(5))),   # ...but r5 is live here
            Instr("l", (R(6), VAR_C)),   # r6 redefined unread: dead
            Instr("st", (R(4), VAR_C)),
        ])
        event = _event(2, victim=5, candidates=((5, 0), (6, 1)))
        directive, stop = spillplan._derive(
            cfg, live, exprs, event, frozenset()
        )
        assert stop is True
        assert directive.victim == 6
        assert directive.skip_store is False

    def test_dead_value_store_skipped(self):
        cfg, live, exprs = facts([
            Instr("l", (R(5), VAR_A)),
            Instr("st", (R(5), SLOT)),   # the slot is never reloaded
            Instr("l", (R(6), VAR_B)),
            Instr("st", (R(6), VAR_C)),
        ])
        directive, stop = spillplan._derive(
            cfg, live, exprs, _event(1), frozenset()
        )
        assert stop is False
        assert directive.skip_store is True
        assert directive.alt_disp is None

    def test_clean_value_reloads_redirected_home(self):
        cfg, live, exprs = facts([
            Instr("l", (R(5), VAR_A)),
            Instr("st", (R(5), SLOT)),
            Instr("l", (R(6), VAR_B)),
            Instr("l", (R(7), SLOT)),    # reload
            Instr("ar", (R(7), R(6))),
            Instr("st", (R(7), VAR_C)),
        ])
        directive, stop = spillplan._derive(
            cfg, live, exprs, _event(1), frozenset()
        )
        assert stop is False
        assert directive.skip_store is True
        assert (directive.alt_disp, directive.alt_base) == (100, 11)

    def test_dirty_live_value_kept(self):
        cfg, live, exprs = facts([
            Instr("l", (R(5), VAR_A)),
            Instr("ar", (R(5), R(5))),   # no longer a clean load
            Instr("st", (R(5), SLOT)),
            Instr("ar", (R(4), R(5))),   # and live after the site
            Instr("l", (R(7), SLOT)),    # reloaded later
            Instr("st", (R(7), VAR_C)),
        ])
        directive, stop = spillplan._derive(
            cfg, live, exprs, _event(2), frozenset()
        )
        assert stop is False
        assert directive.skip_store is False
        assert directive.victim == 5

    def test_home_rewrite_blocks_the_redirect(self):
        cfg, live, exprs = facts([
            Instr("l", (R(5), VAR_A)),
            Instr("st", (R(5), SLOT)),
            Instr("st", (R(6), VAR_A)),  # the home changes value
            Instr("l", (R(7), SLOT)),
            Instr("st", (R(7), VAR_C)),
        ])
        directive, _stop = spillplan._derive(
            cfg, live, exprs, _event(1), frozenset()
        )
        assert directive.skip_store is False

    def test_cse_spill_never_skipped(self):
        cfg, live, exprs = facts([
            Instr("l", (R(5), VAR_A)),
            Instr("st", (R(5), SLOT)),
            Instr("st", (R(6), VAR_C)),
        ])
        directive, stop = spillplan._derive(
            cfg, live, exprs, _event(1, cse=3), frozenset()
        )
        assert stop is False
        assert directive.skip_store is False


# ---------------------------------------------------------------------------
# Plan application in the allocator: guards, overrides, skipped stores.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def pressure():
    compiled = compile_source(W.register_pressure(20), opt_level=0)
    build = cached_build("full")
    return build, list(compiled.tokens), compiled.ir.spill_frame


def _probe(build, tokens, frame, plan=()):
    return build.code_generator.generate(
        tokens, frame=copy.deepcopy(frame),
        strategy="liveness", spill_plan=tuple(plan),
    )


class TestPlanApplication:
    def test_empty_plan_is_byte_identical_to_lru(self, pressure):
        build, tokens, frame = pressure
        probe = _probe(build, tokens, frame)
        lru = build.code_generator.generate(
            tokens, frame=copy.deepcopy(frame), strategy="lru"
        )
        assert probe.listing() == lru.listing()
        assert probe.stats["plan_degraded_reason"] == ""
        assert len(probe.stats["spill_log"]) == 10

    def test_victim_override_is_applied(self, pressure):
        build, tokens, frame = pressure
        probe = _probe(build, tokens, frame)
        event = probe.stats["spill_log"][0]
        other = next(
            n for n, _ in event.candidates if n != event.victim
        )
        directive = SpillDirective(
            ordinal=0, guard_index=event.guard_index,
            pool=event.pool, victim=other,
        )
        out = _probe(build, tokens, frame, [directive])
        replayed = out.stats["spill_log"][0]
        assert replayed.planned is True
        assert replayed.victim == other
        assert out.stats["plan_degraded_reason"] == ""

    def test_guard_mismatch_degrades_to_lru(self, pressure):
        build, tokens, frame = pressure
        probe = _probe(build, tokens, frame)
        event = probe.stats["spill_log"][0]
        stale = SpillDirective(
            ordinal=0, guard_index=event.guard_index + 1,
            pool=event.pool, victim=event.victim,
        )
        out = _probe(build, tokens, frame, [stale])
        assert "guard" in out.stats["plan_degraded_reason"]
        assert out.listing() == probe.listing()  # decisions: plain LRU

    def test_unknown_victim_degrades(self, pressure):
        build, tokens, frame = pressure
        probe = _probe(build, tokens, frame)
        event = probe.stats["spill_log"][0]
        bogus = SpillDirective(
            ordinal=0, guard_index=event.guard_index,
            pool=event.pool, victim=0,  # never allocatable here
        )
        out = _probe(build, tokens, frame, [bogus])
        assert out.stats["plan_degraded_reason"]
        assert out.listing() == probe.listing()

    def test_skipped_store_leaves_no_spill_comment(self, pressure):
        build, tokens, frame = pressure
        plan, reason = build_plan(
            _probe(build, tokens, frame), ENC, ()
        )
        assert reason == ""
        assert plan and all(d.skip_store for d in plan)
        assert all(d.alt_disp is not None for d in plan)
        out = _probe(build, tokens, frame, plan)
        log = out.stats["spill_log"]
        assert all(e.skipped for e in log)
        stores = [
            i for i in out.buffer.items
            if isinstance(i, Instr)
            and (i.comment or "").startswith("spill")
        ]
        assert stores == []


# ---------------------------------------------------------------------------
# The probe/plan driver end to end.
# ---------------------------------------------------------------------------


class TestGenerateWithLiveness:
    def test_pressure_workload_eliminates_every_store(self, pressure):
        build, tokens, frame = pressure
        generated, info = generate_with_liveness(
            build, tokens, frame=copy.deepcopy(frame)
        )
        assert info["strategy"] == "liveness"
        assert info["spill_events"] == 10
        assert info["spill_stores_skipped"] == 10
        assert info["spill_stores_emitted"] == 0
        assert info["plan_iterations"] == 2  # skip-only plans converge
        assert info["degraded_reason"] == ""

    def test_converged_plan_returns_the_last_probe(
        self, pressure, monkeypatch
    ):
        """A converged plan costs two generations, not three: the last
        probe is the result, and the caller's frame ends in the state a
        final generation with that plan would have left it in."""
        build, tokens, frame = pressure
        gen = build.code_generator
        calls, plans = [], []
        generate, plan_of = gen.generate, spillplan.build_plan

        def counting(*args, **kwargs):
            calls.append(kwargs.get("spill_plan"))
            return generate(*args, **kwargs)

        def recording(*args, **kwargs):
            result = plan_of(*args, **kwargs)
            plans.append(result[0])
            return result

        monkeypatch.setattr(gen, "generate", counting)
        monkeypatch.setattr(spillplan, "build_plan", recording)
        mine = copy.deepcopy(frame)
        generated, info = generate_with_liveness(build, tokens, frame=mine)
        assert len(calls) == 2 and info["plan_iterations"] == 2
        monkeypatch.undo()
        theirs = copy.deepcopy(frame)
        final = gen.generate(
            tokens, frame=theirs, strategy="liveness", spill_plan=plans[-1]
        )
        assert generated.listing() == final.listing()
        assert mine.alloc_temp(4) == theirs.alloc_temp(4)

    def test_spill_free_program_returns_the_probe(self):
        compiled = compile_source(W.appendix1_fragment(), opt_level=0)
        build = cached_build("full")
        generated, info = generate_with_liveness(
            build, list(compiled.tokens),
            frame=copy.deepcopy(compiled.ir.spill_frame),
        )
        assert info["spill_events"] == 0
        assert info["plan_iterations"] == 0


# ---------------------------------------------------------------------------
# Differential: -O3 output equals every other level, everywhere.
# ---------------------------------------------------------------------------


class TestDifferential:
    @pytest.mark.parametrize(
        "name,source",
        [(n, s) for n, s in __import__(
            "repro.bench.codequality", fromlist=["quality_workloads"]
        ).quality_workloads()],
        ids=[n for n, _ in __import__(
            "repro.bench.codequality", fromlist=["quality_workloads"]
        ).quality_workloads()],
    )
    def test_output_identical_across_strategies(self, name, source):
        reference = compile_source(source, opt_level=0).run()
        optimized = compile_source(source, opt_level=3).run()
        assert optimized.trap is None
        assert optimized.output == reference.output
        assert optimized.steps <= reference.steps


# ---------------------------------------------------------------------------
# Plumbing: env default, stats payload, service validation, chaos.
# ---------------------------------------------------------------------------


class TestPlumbing:
    def test_env_var_selects_level(self, monkeypatch):
        monkeypatch.setenv("REPRO_OPT_LEVEL", "3")
        assert default_opt_level() == 3
        for bad in ("junk", "O3", "5"):
            monkeypatch.setenv("REPRO_OPT_LEVEL", bad)
            with pytest.raises(ReproError, match="use 0, 1, 2, 3 or 4"):
                default_opt_level()
        monkeypatch.setenv("REPRO_OPT_LEVEL", "")
        assert default_opt_level() == 1
        monkeypatch.delenv("REPRO_OPT_LEVEL")
        assert default_opt_level() == 1

    def test_regalloc_stats_ride_every_level(self):
        source = W.register_pressure(20)
        o1 = compile_source(source, opt_level=1)
        assert o1.stats["regalloc"]["strategy"] == "lru"
        assert o1.stats["regalloc"]["spill_stores"] == 10
        assert o1.stats["regalloc"]["reloads"] == 10
        o3 = compile_source(source, opt_level=3)
        assert o3.stats["regalloc"]["strategy"] == "liveness"
        assert o3.stats["regalloc"]["spill_stores"] == 0
        assert o3.stats["regalloc"]["reloads"] == 10
        assert o3.stats["regalloc"]["degraded_reason"] == ""

    def test_service_accepts_level_4_rejects_5(self):
        from repro.pipeline.service import ServiceRequest

        ServiceRequest.from_wire(
            {"source": "program p; begin writeln(1) end.",
             "opt_level": 4}, "compile",
        )
        with pytest.raises(BadRequestError) as info:
            ServiceRequest.from_wire(
                {"source": "program p; begin writeln(1) end.",
                 "opt_level": 5}, "compile",
            )
        assert "opt_level" in str(info.value)
