"""Register allocation: USING, NEED and the LRU strategy of paper 4.1.

Key mechanics reproduced from the paper:

* a **global usage index** is incremented on every reduction; registers
  record it when allocated or modified, and the free register with the
  *lowest* index is handed out first ("least recently used" in the
  pipeline-contention sense);
* **use counts**: consuming a stack operand decrements its register's use
  count (freeing it at zero); pushing a LHS increments it; a CSE
  declaration adds its remaining-use count;
* **NEED of a busy register** shuffles its contents to a sibling register
  and patches the translation stack (via the ``on_move`` hook installed
  by the skeletal parser);
* register **exhaustion** evicts the least recently used unpinned
  register to a scratch temporary (``on_spill`` hook) -- our documented
  robustness extension (DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.errors import CodeGenError, DataflowError, RegisterPressureError
from repro.core.machine import ClassKind, MachineDescription, RegisterClass
from repro.core.codegen.operand import CCValue, PairValue, RegValue

#: ``on_move(cls_nonterminal, dst, src)`` must emit the move instruction
#: and patch translation-stack values that referenced ``src``.
MoveHook = Callable[[str, int, int], None]
#: ``on_spill(cls_nonterminal, reg)`` must emit the store and patch the
#: translation stack to a SpilledValue; the eviction's
#: :class:`SpillEvent` is the allocator's ``spill_log[-1]``.
SpillHook = Callable[[str, int], None]
#: ``on_free(reg)`` observes every busy -> free transition: the value the
#: register held is dead from this point on.  Fired *after* any
#: instruction that reads the register on the way out (the shuffle move,
#: the spill store), so a code-position recorded at fire time is a sound
#: liveness boundary.  Installed by the parser runtime to feed the code
#: buffer's register-death facts (peephole store/load forwarding).
FreeHook = Callable[[int], None]


@dataclass(frozen=True)
class SpillDirective:
    """One planned eviction decision (:mod:`repro.opt.spillplan`).

    Directives are positional: the directive for eviction ``ordinal`` N
    must sit at index N of the allocator's ``spill_plan``.  Each carries
    the ``guard_index`` (the allocator's ``global_index`` at the probe's
    matching eviction), the pool and the victim: any mismatch means the
    run diverged from the probe the plan was built against, and the
    allocator raises :class:`~repro.errors.DataflowError` (the compile
    then loses one optimization level).

    ``skip_store`` suppresses the spill store; ``alt_disp``/``alt_base``
    then optionally redirect future reloads to a location already
    holding the value (a "clean" value), ``None`` meaning the value has
    no remaining reads at all.  ``remat`` -- an
    ``(opcode, (disp, index, base))`` recomputation -- instead replaces
    every reload with re-executing that cheap address-arithmetic
    instruction (spill rematerialization, the -O4 planner client).
    """

    ordinal: int
    guard_index: int
    pool: str
    victim: int
    skip_store: bool = False
    alt_disp: Optional[int] = None
    alt_base: Optional[int] = None
    remat: Optional[Tuple[str, Tuple[int, int, int]]] = None


@dataclass
class SpillEvent:
    """One eviction as it actually happened (the allocator's spill log).

    The probe pass of :mod:`repro.opt.spillplan` reads these to build a
    :class:`SpillDirective` plan; the final pass reads them to count
    emitted vs. skipped stores.  ``ordinal`` numbers every eviction in
    order; each half of an evicted pair is one eviction whose only
    candidate is itself.  ``store_index``/``scratch``/``cse`` are filled
    in by the parser runtime's spill hook.
    """

    ordinal: int
    guard_index: int
    pool: str
    cls_nt: str
    victim: int
    candidates: Tuple[Tuple[int, int], ...] = ()
    planned: bool = False
    skipped: bool = False
    remat: bool = False
    store_index: Optional[int] = None
    scratch: Optional[Tuple[int, int]] = None
    cse: Optional[int] = None


@dataclass(slots=True)
class RegState:
    """Allocator bookkeeping for one hardware register.

    ``pin_epoch`` implements pinning without a side table: a register is
    pinned exactly when its epoch equals the allocator's current one, and
    ``unpin_all`` is a single epoch increment.
    """

    number: int
    busy: bool = False
    use_count: int = 0
    stamp: int = 0
    cse: Optional[int] = None
    pin_epoch: int = 0


class RegisterAllocator:
    """Per-compilation register allocation state.

    One :class:`RegState` pool exists per *underlying GPR class*; pair
    classes view the same pool, so allocating ``dbl.1`` makes both halves
    busy in the ``r`` pool exactly as on the real machine.

    The class/pool resolution maps are precomputed from the machine
    description at construction: the skeletal parser pins, acquires and
    releases registers thousands of times per compilation unit, so every
    per-call trip through ``machine.register_class`` was measurable.
    Both reducer tiers -- the generic reducer and the compiled reducers
    of :mod:`repro.core.specialize` -- make those calls; no other code
    reads or writes a :class:`RegState`.
    """

    __slots__ = (
        "machine", "on_move", "on_spill", "on_free", "strategy",
        "global_index",
        "spill_plan", "spill_log", "_spill_ordinal",
        "_pools", "_pin_epoch", "_cls_by_nt", "_pool_by_nt",
        "_pool_name_by_nt", "_pool_by_cls_name", "_gpr_nt_by_cls_name",
        "_split_info_by_nt", "_scan_by_nt",
    )

    def __init__(
        self,
        machine: MachineDescription,
        on_move: Optional[MoveHook] = None,
        on_spill: Optional[SpillHook] = None,
        strategy: str = "lru",
        on_free: Optional[FreeHook] = None,
        spill_plan: Tuple[SpillDirective, ...] = (),
    ):
        if strategy not in ("lru", "fixed"):
            raise CodeGenError(f"unknown allocation strategy {strategy!r}")
        self.machine = machine
        self.on_move = on_move
        self.on_spill = on_spill
        self.on_free = on_free
        #: "lru" is the paper's pipeline-friendly strategy (section 4.1);
        #: "fixed" always picks the lowest-numbered free register and
        #: exists for the ablation benchmark.
        self.strategy = strategy
        #: A non-empty plan overrides eviction choices and may skip
        #: spill stores (repro.opt.spillplan); an empty one is plain
        #: eviction by ``_evictable`` order.
        self.spill_plan = tuple(spill_plan)
        #: Every eviction in order; the spill hook reads the last.
        self.spill_log: List[SpillEvent] = []
        self._spill_ordinal = 0
        self.global_index = 0
        self._pools: Dict[str, Dict[int, RegState]] = {}
        self._pin_epoch = 1  # RegState.pin_epoch == this means pinned
        self._cls_by_nt: Dict[str, RegisterClass] = dict(machine.classes)
        self._pool_by_nt: Dict[str, Dict[int, RegState]] = {}
        self._pool_name_by_nt: Dict[str, str] = {}
        self._pool_by_cls_name: Dict[str, Dict[int, RegState]] = {}
        self._gpr_nt_by_cls_name: Dict[str, str] = {}
        for nt, cls in machine.classes.items():
            if cls.kind is ClassKind.CC:
                continue
            gpr_cls = machine.gpr_class_of(cls)
            pool_name = gpr_cls.name
            pool = self._pools.setdefault(pool_name, {})
            for n in gpr_cls.members:
                pool.setdefault(n, RegState(n))
            self._pool_by_nt[nt] = pool
            self._pool_name_by_nt[nt] = pool_name
            self._pool_by_cls_name[cls.name] = pool
            if cls.kind is ClassKind.GPR and cls is gpr_cls:
                self._gpr_nt_by_cls_name[cls.name] = nt
        #: split_pair's full resolution chain (class -> GPR non-terminal
        #: -> pool), precomputed per non-terminal.  Second pass: the GPR
        #: name map above must be complete first.
        self._split_info_by_nt: Dict[str, Tuple[str, Dict[int, RegState]]] = {
            nt: (self._gpr_nonterminal(cls), self._pool_by_nt[nt])
            for nt, cls in machine.classes.items()
            if cls.kind is not ClassKind.CC
        }
        #: What ``allocate`` scans, per non-terminal: the pool, the
        #: class's allocatable registers (pair evens) in ascending order,
        #: and whether the class is a pair class.  Ascending order makes
        #: a strict ``<`` on stamps keep the ``(stamp, number)``
        #: tie-break, whatever order the machine lists the set in.
        self._scan_by_nt: Dict[
            str, Tuple[Dict[int, RegState], Tuple[int, ...], bool]
        ] = {
            nt: (
                self._pool_by_nt[nt], tuple(sorted(cls.allocatable)),
                cls.kind is ClassKind.PAIR,
            )
            for nt, cls in machine.classes.items()
            if cls.kind is not ClassKind.CC
        }

    # ---- helpers -----------------------------------------------------------

    def _cls(self, nonterminal: str) -> RegisterClass:
        cls = self._cls_by_nt.get(nonterminal)
        if cls is None:
            raise CodeGenError(
                f"non-terminal {nonterminal!r} has no register class in "
                f"machine {self.machine.name!r}"
            )
        return cls

    def _pool(self, cls: RegisterClass) -> Dict[int, RegState]:
        pool = self._pool_by_cls_name.get(cls.name)
        if pool is None:
            pool = self._pools[self.machine.gpr_class_of(cls).name]
        return pool

    def state(self, nonterminal: str, number: int) -> RegState:
        pool = self._pool_by_nt.get(nonterminal)
        if pool is None:
            pool = self._pool(self._cls(nonterminal))
        return pool[number]

    def _pressure(
        self, message: str, cls: RegisterClass
    ) -> RegisterPressureError:
        """A pressure error carrying the class and current occupancy."""
        pool = self._pool(cls)
        occupancy = {
            n: state.use_count for n, state in pool.items() if state.busy
        }
        return RegisterPressureError(
            message, cls_name=cls.name, occupancy=occupancy
        )

    def occupancy(self, nonterminal: str) -> Dict[int, int]:
        """Busy registers of the class's pool -> current use counts."""
        pool = self._pool(self._cls(nonterminal))
        return {n: s.use_count for n, s in pool.items() if s.busy}

    # ---- lifecycle ----------------------------------------------------------

    def begin_reduction(self) -> None:
        """Bump the global usage index (paper 4.1: 'Every time a reduction
        occurs, a global index value is incremented')."""
        self.global_index += 1

    def pin(self, value: Union[RegValue, PairValue]) -> None:
        """Protect a register from eviction during the current reduction."""
        pool = self._pool_by_nt.get(value.cls)
        if pool is None:
            pool = self._pool(self._cls(value.cls))
        epoch = self._pin_epoch
        if type(value) is PairValue:
            pool[value.even].pin_epoch = epoch
            pool[value.even + 1].pin_epoch = epoch
        else:
            pool[value.reg].pin_epoch = epoch

    def unpin_all(self) -> None:
        self._pin_epoch += 1

    def _pool_name(self, nonterminal: str) -> str:
        name = self._pool_name_by_nt.get(nonterminal)
        if name is not None:
            return name
        return self.machine.gpr_class_of(self._cls(nonterminal)).name

    # ---- allocation (USING) --------------------------------------------------

    def allocate(self, nonterminal: str) -> Union[RegValue, PairValue, CCValue]:
        """USING: any free register (or pair) of the class, LRU first."""
        scan = self._scan_by_nt.get(nonterminal)
        if scan is None:
            self._cls(nonterminal)  # raises for an unknown non-terminal
            return CCValue()
        pool, regs, pair = scan
        if pair:
            even = self._best_free_pair(pool, regs)
            if even is None:
                cls = self._cls(nonterminal)
                self._evict_for_pair(nonterminal, cls)
                even = self._best_free_pair(pool, regs)
                if even is None:
                    raise self._pressure(
                        f"no {cls.name!r} pair can be freed", cls
                    )
            self._mark_allocated(pool[even])
            self._mark_allocated(pool[even + 1])
            return PairValue(even, nonterminal)
        state = self._best_free(pool, regs)
        if state is None:
            cls = self._cls(nonterminal)
            self._evict_one(nonterminal, cls)
            state = self._best_free(pool, regs)
            if state is None:
                raise self._pressure(
                    f"no register of class {cls.name!r} can be freed", cls
                )
        self._mark_allocated(state)
        return RegValue(state.number, nonterminal)

    def _free_candidates(self, cls: RegisterClass) -> List[RegState]:
        pool = self._pool(cls)
        free = [pool[n] for n in cls.allocatable if not pool[n].busy]
        if self.strategy != "fixed":
            free.sort(key=lambda s: (s.stamp, s.number))
        else:
            free.sort(key=lambda s: s.number)
        return free

    def _best_free(
        self, pool: Dict[int, RegState], regs: Tuple[int, ...]
    ) -> Optional[RegState]:
        """The register :meth:`_free_candidates` would rank first, found
        by one scan over ``regs`` (ascending, from ``_scan_by_nt``)."""
        if self.strategy == "fixed":
            for n in regs:
                state = pool[n]
                if not state.busy:
                    return state
            return None
        best: Optional[RegState] = None
        stamp = 0
        for n in regs:
            state = pool[n]
            if not state.busy and (best is None or state.stamp < stamp):
                best = state
                stamp = state.stamp
        return best

    @staticmethod
    def _best_free_pair(
        pool: Dict[int, RegState], evens: Tuple[int, ...]
    ) -> Optional[int]:
        """The least-recently-used fully-free pair (lowest even number on
        ties, whatever the strategy), found by one scan over ``evens``
        (ascending)."""
        best: Optional[int] = None
        best_stamp = 0
        for even in evens:
            s0 = pool[even]
            if s0.busy:
                continue
            s1 = pool[even + 1]
            if s1.busy:
                continue
            stamp = s0.stamp if s0.stamp > s1.stamp else s1.stamp
            if best is None or stamp < best_stamp:
                best = even
                best_stamp = stamp
        return best

    def _mark_allocated(self, state: RegState) -> None:
        state.busy = True
        state.use_count = 1
        state.cse = None
        state.stamp = self.global_index

    # ---- reservation (NEED) ----------------------------------------------------

    def reserve(self, nonterminal: str, number: int) -> RegValue:
        """NEED: a specific register; shuffle its contents away if busy.

        Paper 4.1: "If a specific register is requested, and that register
        is in use, then the current contents of that register is
        transferred to another register of the same type, and the
        translation stack is updated."
        """
        cls = self._cls(nonterminal)
        if cls.kind is not ClassKind.GPR:
            raise CodeGenError(
                f"need: class {cls.name!r} does not support reservation"
            )
        pool = self._pool(cls)
        if number not in pool:
            raise CodeGenError(
                f"need: register {number} is not a member of {cls.name!r}"
            )
        state = pool[number]
        if state.busy:
            self._shuffle(nonterminal, cls, state)
        self._mark_allocated(state)
        return RegValue(number, nonterminal)

    def _shuffle(
        self, nonterminal: str, cls: RegisterClass, state: RegState
    ) -> None:
        if self.on_move is None:
            raise self._pressure(
                f"register {state.number} of {cls.name!r} is busy and no "
                f"move hook is installed", cls
            )
        # ``state`` is busy, so the scan never picks it.
        pool, regs, _ = self._scan_by_nt[nonterminal]
        target = self._best_free(pool, regs)
        if target is None:
            raise self._pressure(
                f"need: register {state.number} is busy and class "
                f"{cls.name!r} has no free sibling", cls
            )
        # Transfer allocator state, then let the runtime emit the move and
        # patch the translation stack.
        target.busy = True
        target.use_count = state.use_count
        target.cse = state.cse
        target.stamp = self.global_index
        state.busy = False
        state.use_count = 0
        state.cse = None
        self.on_move(nonterminal, target.number, state.number)
        # The move read the source register, so the death fact must be
        # recorded after the hook emitted it.
        if self.on_free is not None:
            self.on_free(state.number)

    # ---- eviction / spilling ------------------------------------------------------

    def _evictable(self, cls: RegisterClass) -> List[RegState]:
        pool = self._pool(cls)
        epoch = self._pin_epoch
        busy = [
            pool[n]
            for n in cls.allocatable
            if pool[n].busy and pool[n].pin_epoch != epoch
        ]
        busy.sort(key=lambda s: (s.stamp, s.number))
        return busy

    def _evict_one(self, nonterminal: str, cls: RegisterClass) -> None:
        if self.on_spill is None:
            raise self._pressure(
                f"class {cls.name!r} exhausted and no spill hook installed",
                cls,
            )
        victims = self._evictable(cls)
        if not victims:
            raise self._pressure(
                f"class {cls.name!r} exhausted; every register is pinned",
                cls,
            )
        self._spill(nonterminal, self._pool_name(nonterminal), victims)

    def _evict_for_pair(self, nonterminal: str, cls: RegisterClass) -> None:
        pool = self._pool(cls)
        epoch = self._pin_epoch
        # Pick the pair whose busy halves are least recently used overall.
        best: Optional[int] = None
        best_stamp = None
        for even in cls.allocatable:
            halves = [pool[even], pool[even + 1]]
            if any(
                s.pin_epoch == epoch for s in halves if s.busy
            ):
                continue
            stamp = max((s.stamp for s in halves if s.busy), default=-1)
            if best is None or stamp < best_stamp:
                best, best_stamp = even, stamp
        if best is None or self.on_spill is None:
            raise self._pressure(
                f"pair class {cls.name!r} exhausted", cls
            )
        gpr_nt = self._gpr_nonterminal(cls)
        pool_name = self._pool_name(nonterminal)
        for state in (pool[best], pool[best + 1]):
            if state.busy:
                # Both halves must go: each is an eviction with no
                # victim choice, but its directive may skip the store.
                self._spill(gpr_nt, pool_name, [state])

    def _spill(
        self, cls_nt: str, pool_name: str, victims: List[RegState]
    ) -> None:
        """Evict one of ``victims`` (LRU first) through the spill hook.

        A non-empty ``spill_plan`` must hold this eviction's directive,
        naming this ordinal, global index and pool and one of the
        victims; anything else means the run left the probe the plan
        was built against, and the plan is never applied past that
        point: this raises :class:`~repro.errors.DataflowError`."""
        ordinal = self._spill_ordinal
        self._spill_ordinal += 1
        victim = victims[0]
        planned = ordinal < len(self.spill_plan)
        if planned:
            d = self.spill_plan[ordinal]
            chosen = [s for s in victims if s.number == d.victim]
            if not chosen or (d.ordinal, d.guard_index, d.pool) != (
                ordinal, self.global_index, pool_name
            ):
                raise DataflowError(
                    f"spill plan mismatch at eviction {ordinal}: expected "
                    f"(ordinal={d.ordinal}, guard={d.guard_index}, "
                    f"pool={d.pool!r}, victim={d.victim}) got "
                    f"(ordinal={ordinal}, guard={self.global_index}, "
                    f"pool={pool_name!r}, victims="
                    f"{[s.number for s in victims]})",
                    analysis="spillplan",
                )
            victim = chosen[0]
        event = SpillEvent(
            ordinal=ordinal,
            guard_index=self.global_index,
            pool=pool_name,
            cls_nt=cls_nt,
            victim=victim.number,
            candidates=tuple((s.number, s.stamp) for s in victims),
            planned=planned,
        )
        self.spill_log.append(event)
        self.on_spill(cls_nt, victim.number)
        victim.busy = False
        victim.use_count = 0
        victim.cse = None
        if self.on_free is not None:  # after the spill store read it
            self.on_free(victim.number)

    def _gpr_nonterminal(self, cls: RegisterClass) -> str:
        """The non-terminal naming the underlying GPR class."""
        target = self.machine.gpr_class_of(cls)
        nt = self._gpr_nt_by_cls_name.get(target.name)
        if nt is not None:
            return nt
        for nt, c in self.machine.classes.items():
            if c is target:
                return nt
        raise CodeGenError(
            f"no non-terminal names class {target.name!r}"
        )  # pragma: no cover - machine descriptions always name classes

    # ---- use counting ----------------------------------------------------------

    def acquire(
        self, value: Union[RegValue, PairValue], count: int = 1
    ) -> None:
        """Increment use counts (LHS pushed, CSE declared...)."""
        pool = self._pool_by_nt.get(value.cls)
        if pool is None:
            pool = self._pools[self._pool_name(value.cls)]
        if type(value) is not PairValue:
            state = pool[value.reg]
            state.busy = True
            state.use_count += count
            return
        for n in (value.even, value.odd):
            state = pool[n]
            state.busy = True
            state.use_count += count

    def release(
        self, value: Union[RegValue, PairValue], count: int = 1
    ) -> None:
        """Decrement use counts; a register frees when its count hits 0."""
        pool = self._pool_by_nt.get(value.cls)
        if pool is None:
            pool = self._pools[self._pool_name(value.cls)]
        if type(value) is not PairValue:
            state = pool[value.reg]
            state.use_count -= count
            if state.use_count <= 0:
                was_busy = state.busy
                state.busy = False
                state.use_count = 0
                state.cse = None
                if was_busy and self.on_free is not None:
                    self.on_free(value.reg)
            return
        for n in (value.even, value.odd):
            state = pool[n]
            state.use_count -= count
            if state.use_count <= 0:
                was_busy = state.busy
                state.busy = False
                state.use_count = 0
                state.cse = None
                if was_busy and self.on_free is not None:
                    self.on_free(n)

    def split_pair(self, pair: PairValue, keep: str) -> RegValue:
        """PUSH_ODD / PUSH_EVEN: free one half, keep the other as a GPR.

        The kept half is "type converted" into the underlying register
        class (paper 4.3) and keeps a use count of 1.
        """
        info = self._split_info_by_nt.get(pair.cls)
        if info is not None:
            gpr_nt, pool = info
        else:
            cls = self._cls(pair.cls)
            gpr_nt = self._gpr_nonterminal(cls)
            pool = self._pool(cls)
        kept = pair.odd if keep == "odd" else pair.even
        dropped = pair.even if keep == "odd" else pair.odd
        drop_state = pool[dropped]
        was_busy = drop_state.busy
        drop_state.busy = False
        drop_state.use_count = 0
        drop_state.cse = None
        if was_busy and self.on_free is not None:
            self.on_free(dropped)
        keep_state = pool[kept]
        keep_state.busy = True
        keep_state.use_count = 1
        keep_state.stamp = self.global_index
        return RegValue(kept, gpr_nt)

    # ---- MODIFIES / CSE bookkeeping ----------------------------------------------

    def mark_modified(self, value: Union[RegValue, PairValue]) -> List[int]:
        """MODIFIES: bump LRU stamps; return (and clear) bound CSE ids."""
        pool = self._pool_by_nt.get(value.cls)
        if pool is None:
            pool = self._pools[self._pool_name(value.cls)]
        if type(value) is not PairValue:
            state = pool[value.reg]
            state.stamp = self.global_index
            cse_id = state.cse
            if cse_id is None:
                return []
            state.cse = None
            return [cse_id]
        invalidated: List[int] = []
        for n in (value.even, value.odd):
            state = pool[n]
            state.stamp = self.global_index
            if state.cse is not None:
                invalidated.append(state.cse)
                state.cse = None
        return invalidated

    def uses(self, value: RegValue) -> Tuple[int, Optional[int]]:
        """``(use count, bound CSE id)`` of a plain register."""
        state = self.state(value.cls, value.reg)
        return state.use_count, state.cse

    def bind_cse(self, value: RegValue, cse_id: int) -> None:
        self.state(value.cls, value.reg).cse = cse_id

    def cse_of(self, value: RegValue) -> Optional[int]:
        return self.state(value.cls, value.reg).cse

    # ---- introspection (tests, diagnostics) -----------------------------------------

    def busy_registers(self, pool_name: str) -> List[int]:
        return sorted(
            n for n, s in self._pools[pool_name].items() if s.busy
        )

    def free_count(self, nonterminal: str) -> int:
        cls = self._cls(nonterminal)
        if cls.kind is ClassKind.CC:
            return 1
        if cls.kind is ClassKind.PAIR:
            pool = self._pool(cls)
            return sum(
                1
                for even in cls.allocatable
                if not pool[even].busy and not pool[even + 1].busy
            )
        return len(self._free_candidates(cls))
