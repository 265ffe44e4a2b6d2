"""Unit tests: the LRU register allocator (paper section 4.1)."""

import random

import pytest

from repro.errors import CodeGenError, RegisterPressureError
from repro.core.machine import (
    ClassKind,
    MachineDescription,
    RegisterClass,
)
from repro.core.codegen.operand import CCValue, PairValue, RegValue
from repro.core.codegen.registers import RegisterAllocator


def machine():
    gpr = RegisterClass(
        "register", ClassKind.GPR,
        members=tuple(range(8)), allocatable=(1, 2, 3, 4, 5),
    )
    dbl = RegisterClass(
        "pair", ClassKind.PAIR,
        members=(2, 4), allocatable=(2, 4), pair_of="r",
    )
    cc = RegisterClass("condition", ClassKind.CC)
    return MachineDescription(
        name="m", classes={"r": gpr, "dbl": dbl, "cc": cc}
    )


def alloc(**kwargs):
    return RegisterAllocator(machine(), **kwargs)


class TestAllocate:
    def test_lru_order(self):
        a = alloc()
        a.begin_reduction()
        first = a.allocate("r")
        second = a.allocate("r")
        assert isinstance(first, RegValue)
        assert first.reg != second.reg

    def test_least_recently_used_preferred(self):
        a = alloc()
        # Give every register a distinct stamp (one reduction each).
        regs = []
        for _ in range(5):
            a.begin_reduction()
            regs.append(a.allocate("r"))
        for r in regs:
            a.release(r)
        # All free again: the lowest-stamp (earliest-touched) register
        # must come back first, then the next, preserving stamp order.
        a.begin_reduction()
        assert a.allocate("r").reg == regs[0].reg
        assert a.allocate("r").reg == regs[1].reg

    def test_fixed_strategy_picks_lowest_number(self):
        a = alloc(strategy="fixed")
        a.begin_reduction()
        assert a.allocate("r").reg == 1
        assert a.allocate("r").reg == 2

    def test_unknown_strategy_rejected(self):
        with pytest.raises(CodeGenError):
            alloc(strategy="bogus")

    def test_cc_allocation_is_free(self):
        a = alloc()
        assert isinstance(a.allocate("cc"), CCValue)
        assert a.free_count("cc") == 1

    def test_exhaustion_without_spill_hook(self):
        a = alloc()
        a.begin_reduction()
        for _ in range(5):
            a.allocate("r")
        with pytest.raises(RegisterPressureError):
            a.allocate("r")

    def test_unknown_class(self):
        with pytest.raises(CodeGenError):
            alloc().allocate("float")


class TestPairs:
    def test_pair_occupies_both_halves(self):
        a = alloc()
        a.begin_reduction()
        pair = a.allocate("dbl")
        assert isinstance(pair, PairValue)
        assert pair.odd == pair.even + 1
        assert {pair.even, pair.odd} <= set(a.busy_registers("register"))

    def test_pair_avoids_busy_halves(self):
        a = alloc(strategy="fixed")
        a.begin_reduction()
        r = a.allocate("r")     # r1
        r2 = a.allocate("r")    # r2 -- blocks pair (2,3)
        pair = a.allocate("dbl")
        assert pair.even == 4

    def test_split_pair_keeps_odd(self):
        a = alloc()
        a.begin_reduction()
        pair = a.allocate("dbl")
        odd = a.split_pair(pair, "odd")
        assert odd.reg == pair.odd
        busy = a.busy_registers("register")
        assert pair.even not in busy
        assert pair.odd in busy

    def test_split_pair_keeps_even(self):
        a = alloc()
        a.begin_reduction()
        pair = a.allocate("dbl")
        even = a.split_pair(pair, "even")
        assert even.reg == pair.even


class TestNeed:
    def test_reserve_free_register(self):
        a = alloc()
        a.begin_reduction()
        value = a.reserve("r", 7)  # member but not allocatable
        assert value.reg == 7

    def test_reserve_busy_register_shuffles(self):
        moves = []
        a = alloc(on_move=lambda cls, dst, src: moves.append((dst, src)))
        a.begin_reduction()
        victim = a.reserve("r", 1)
        assert victim.reg == 1
        a.reserve("r", 1)
        assert len(moves) == 1
        dst, src = moves[0]
        assert src == 1 and dst != 1
        # the moved-to register carries the old contents (busy).
        assert dst in a.busy_registers("register")

    def test_reserve_busy_without_hook_fails(self):
        a = alloc()
        a.begin_reduction()
        a.reserve("r", 1)
        with pytest.raises(RegisterPressureError):
            a.reserve("r", 1)

    def test_reserve_nonmember_rejected(self):
        with pytest.raises(CodeGenError):
            alloc().reserve("r", 99)


class TestUseCounts:
    def test_release_frees_at_zero(self):
        a = alloc()
        a.begin_reduction()
        r = a.allocate("r")
        a.release(r)
        assert r.reg not in a.busy_registers("register")

    def test_acquire_keeps_busy(self):
        a = alloc()
        a.begin_reduction()
        r = a.allocate("r")
        a.acquire(r)            # e.g. pushed as LHS
        a.release(r)
        assert r.reg in a.busy_registers("register")
        a.release(r)
        assert r.reg not in a.busy_registers("register")

    def test_cse_counts(self):
        a = alloc()
        a.begin_reduction()
        r = a.allocate("r")
        a.acquire(r, count=3)
        for _ in range(3):
            a.release(r)
        assert r.reg in a.busy_registers("register")  # the original use
        a.release(r)
        assert r.reg not in a.busy_registers("register")

    def test_release_clamps_reserved_bases(self):
        a = alloc()
        base = RegValue(6, "r")  # never allocated: an IF base register
        a.release(base)
        a.release(base)
        assert 6 not in a.busy_registers("register")


class TestModifiesAndCse:
    def test_mark_modified_returns_cse(self):
        a = alloc()
        a.begin_reduction()
        r = a.allocate("r")
        a.bind_cse(r, 42)
        assert a.cse_of(r) == 42
        assert a.mark_modified(r) == [42]
        assert a.cse_of(r) is None

    def test_mark_modified_bumps_stamp(self):
        a = alloc()
        a.begin_reduction()
        r = a.allocate("r")
        old = a.state("r", r.reg).stamp
        a.begin_reduction()
        a.begin_reduction()
        a.mark_modified(r)
        assert a.state("r", r.reg).stamp > old


class TestSpill:
    def test_eviction_calls_hook_lru_first(self):
        spilled = []

        def hook(cls, reg):
            spilled.append(reg)

        a = alloc(on_spill=hook)
        a.begin_reduction()
        regs = [a.allocate("r") for _ in range(5)]
        a.begin_reduction()
        extra = a.allocate("r")
        assert spilled == [regs[0].reg]
        assert extra.reg == regs[0].reg

    def test_pinned_registers_survive(self):
        spilled = []
        a = alloc(on_spill=lambda cls, reg: spilled.append(reg))
        a.begin_reduction()
        regs = [a.allocate("r") for _ in range(5)]
        a.pin(regs[0])
        a.allocate("r")
        assert spilled == [regs[1].reg]

    def test_all_pinned_raises(self):
        a = alloc(on_spill=lambda cls, reg: None)
        a.begin_reduction()
        for _ in range(5):
            a.pin(a.allocate("r"))
        with pytest.raises(RegisterPressureError):
            a.allocate("r")


# ---- the fast paths against a slow reference -------------------------------


def shuffled_machine():
    """``machine()`` with both allocatable sets listed out of order."""
    gpr = RegisterClass(
        "register", ClassKind.GPR,
        members=tuple(range(8)), allocatable=(5, 3, 1, 4, 2),
    )
    dbl = RegisterClass(
        "pair", ClassKind.PAIR,
        members=(2, 4, 6), allocatable=(6, 2, 4), pair_of="r",
    )
    cc = RegisterClass("condition", ClassKind.CC)
    return MachineDescription(
        name="m", classes={"r": gpr, "dbl": dbl, "cc": cc}
    )


MACHINES = {"ascending": machine, "shuffled": shuffled_machine}
STRATEGIES = ("lru", "fixed")
CASES = 300


def _random_state(rng):
    """Per-register ``(busy, use_count, stamp, cse)`` with few distinct
    stamps, so ties are common."""
    state = []
    for _ in range(8):
        busy = rng.random() < 0.5
        state.append((
            busy,
            rng.randrange(1, 4) if busy else 0,
            rng.randrange(0, 5),
            rng.choice((None, None, 7)) if busy else None,
        ))
    return state


def _twin(make, strategy, state, global_index):
    """An allocator in pool state ``state`` and the list its ``on_free``
    hook appends to."""
    freed = []
    a = RegisterAllocator(make(), strategy=strategy, on_free=freed.append)
    a.global_index = global_index
    for n, (busy, use_count, stamp, cse) in enumerate(state):
        s = a.state("r", n)
        s.busy, s.use_count, s.stamp, s.cse = busy, use_count, stamp, cse
    return a, freed


def _snapshot(a):
    return [
        (s.busy, s.use_count, s.stamp, s.cse, s.pin_epoch)
        for s in (a.state("r", n) for n in range(8))
    ]


def _ref_release(a, regs, count, freed):
    for n in regs:
        s = a.state("r", n)
        was_busy = s.busy
        s.use_count -= count
        if s.use_count <= 0:
            s.busy = False
            s.use_count = 0
            s.cse = None
            if was_busy:
                freed.append(n)


def _ref_acquire(a, regs, count, freed):
    for n in regs:
        s = a.state("r", n)
        s.busy = True
        s.use_count += count


def _cases(shape, strategy):
    rng = random.Random(f"{shape}/{strategy}")
    for _ in range(CASES):
        yield rng, _random_state(rng), rng.randrange(5, 50)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("shape", sorted(MACHINES))
class TestFastPathsMatchReference:
    """Seeded random pool states: ``allocate``'s one-pass scans pick
    what the sorted candidate lists put first, and the single-register
    ``release``/``acquire``/``split_pair`` paths match a literal
    per-register loop, ``on_free`` order included."""

    def test_allocate_gpr_is_head_of_free_candidates(self, shape, strategy):
        make = MACHINES[shape]
        for _, state, gi in _cases(shape, strategy):
            a, _ = _twin(make, strategy, state, gi)
            ref, _ = _twin(make, strategy, state, gi)
            free = ref._free_candidates(ref.machine.classes["r"])
            if not free:
                with pytest.raises(RegisterPressureError):
                    a.allocate("r")
                continue
            head = free[0]
            head.busy, head.use_count, head.stamp, head.cse = True, 1, gi, None
            assert a.allocate("r") == RegValue(head.number, "r")
            assert _snapshot(a) == _snapshot(ref)

    def test_allocate_pair_is_sorted_free_pair(self, shape, strategy):
        make = MACHINES[shape]
        for _, state, gi in _cases(shape, strategy):
            a, _ = _twin(make, strategy, state, gi)
            ref, _ = _twin(make, strategy, state, gi)
            pairs = sorted(
                (max(ref.state("r", e).stamp, ref.state("r", e + 1).stamp), e)
                for e in ref.machine.classes["dbl"].allocatable
                if not ref.state("r", e).busy
                and not ref.state("r", e + 1).busy
            )
            if not pairs:
                with pytest.raises(RegisterPressureError):
                    a.allocate("dbl")
                continue
            even = pairs[0][1]
            for n in (even, even + 1):
                s = ref.state("r", n)
                s.busy, s.use_count, s.stamp, s.cse = True, 1, gi, None
            assert a.allocate("dbl") == PairValue(even, "dbl")
            assert _snapshot(a) == _snapshot(ref)

    @pytest.mark.parametrize("op", ["release", "acquire"])
    def test_use_counts_match_per_register_loop(self, shape, strategy, op):
        make = MACHINES[shape]
        reference = _ref_release if op == "release" else _ref_acquire
        for rng, state, gi in _cases(shape, strategy):
            a, freed = _twin(make, strategy, state, gi)
            ref, ref_freed = _twin(make, strategy, state, gi)
            if rng.random() < 0.5:
                value = RegValue(rng.randrange(8), "r")
                regs = (value.reg,)
            else:
                value = PairValue(rng.choice((2, 4, 6)), "dbl")
                regs = (value.even, value.odd)
            count = rng.randrange(1, 4)
            getattr(a, op)(value, count)
            reference(ref, regs, count, ref_freed)
            assert _snapshot(a) == _snapshot(ref)
            assert freed == ref_freed

    def test_split_pair_matches_per_register_loop(self, shape, strategy):
        make = MACHINES[shape]
        for rng, state, gi in _cases(shape, strategy):
            a, freed = _twin(make, strategy, state, gi)
            ref, ref_freed = _twin(make, strategy, state, gi)
            pair = PairValue(rng.choice((2, 4, 6)), "dbl")
            keep = rng.choice(("even", "odd"))
            kept, dropped = (
                (pair.even, pair.odd) if keep == "even"
                else (pair.odd, pair.even)
            )
            assert a.split_pair(pair, keep) == RegValue(kept, "r")
            s = ref.state("r", dropped)
            was_busy = s.busy
            s.busy, s.use_count, s.cse = False, 0, None
            if was_busy:
                ref_freed.append(dropped)
            s = ref.state("r", kept)
            s.busy, s.use_count, s.stamp = True, 1, gi
            assert _snapshot(a) == _snapshot(ref)
            assert freed == ref_freed

    def test_mark_modified_matches_per_register_loop(self, shape, strategy):
        make = MACHINES[shape]
        for rng, state, gi in _cases(shape, strategy):
            a, _ = _twin(make, strategy, state, gi)
            ref, _ = _twin(make, strategy, state, gi)
            if rng.random() < 0.5:
                value = RegValue(rng.randrange(8), "r")
                regs = (value.reg,)
            else:
                value = PairValue(rng.choice((2, 4, 6)), "dbl")
                regs = (value.even, value.odd)
            expected = []
            for n in regs:
                s = ref.state("r", n)
                s.stamp = gi
                if s.cse is not None:
                    expected.append(s.cse)
                    s.cse = None
            assert a.mark_modified(value) == expected
            assert _snapshot(a) == _snapshot(ref)
