"""Dynamic LLVM runtime engine (Sec. III-B).

The execute-in-execute core of gem5-SALAM: the statically elaborated
CDFG is instantiated basic-block-by-basic-block into a reservation
queue at runtime; dynamic instances resolve their dependencies against
in-flight producers; compute operations occupy functional units for
their configured latencies; memory operations flow through read/write
queues into the accelerator memory controller; and branch instructions,
once their condition resolves against *real data*, immediately trigger
the fetch of the next basic block — which is what gives loop pipelining
and exact data-dependent control.

Timing model notes (documented deviations / choices):

* Results are computed at issue time (from real register values) but
  become architecturally visible at commit, ``latency`` cycles later;
  zero-latency operations (phis, muxes, wiring casts, branches) commit
  in the same cycle, modelling combinational chaining.
* A new dynamic instance of a static instruction waits for the previous
  instance of the same instruction to commit (no register renaming in
  the datapath), as described in the paper.
* Loads and stores disambiguate at runtime: an access waits for every
  earlier overlapping (or not-yet-resolved) conflicting access.
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional

from repro.core.config import DeviceConfig
from repro.core.llvm_interface import LLVMInterface
from repro.core.occupancy import OccupancyTracker
from repro.hw.profile import FU_NONE
from repro.ir.instructions import (
    Alloca,
    BinaryOp,
    Branch,
    Call,
    Cast,
    FCmp,
    GetElementPtr,
    ICmp,
    Load,
    Phi,
    Ret,
    Select,
    Store,
)
from repro.ir.module import BasicBlock
from repro.ir.semantics import (
    bytes_to_value,
    eval_binop,
    eval_cast,
    eval_fcmp,
    eval_icmp,
    eval_intrinsic,
    gep_address,
    signed_operand,
    value_to_bytes,
)
from repro.ir.values import Argument, Constant, Instruction, Value
from repro.mem.memctrl import AcceleratorMemController, MemRequest
from repro.sim.eventq import Event
from repro.sim.simobject import SimObject, System

# DynInst states.
WAITING = 0
READY = 1
ISSUED = 2
COMMITTED = 3


class EngineError(RuntimeError):
    """Fatal condition inside the runtime engine (bad operand, unsupported
    instruction, launch protocol violation)."""


def trap_reason(inst: Instruction) -> Optional[str]:
    """Why ``inst`` cannot execute on the datapath, or None if it can.

    An alloca and a call that survived inlining are legal IR, so
    elaboration and graph lowering accept them; both engines raise
    ``EngineError(f"{engine name}: {reason}")`` when one issues."""
    if isinstance(inst, Alloca):
        return ("alloca reached the datapath; arrays must live in SPM/DRAM "
                "and scalars should have been promoted by mem2reg")
    if isinstance(inst, Call) and not inst.is_intrinsic:
        return (f"call to '@{inst.callee}' survived inlining; accelerator "
                "functions must be fully inlined")
    return None


_STATE_NAMES = {WAITING: "waiting", READY: "ready", ISSUED: "issued"}


def inflight_line(name: str, window: int, reads: int, writes: int,
                  compute: int, committed: int, cycle: int) -> str:
    """The one-line hang-report snapshot of an engine's in-flight state."""
    return (f"{name}: window={window} reads={reads} writes={writes} "
            f"compute={compute} committed={committed} cycle={cycle}")


def inflight_lines(entries, limit: int = 32) -> list[str]:
    """Hang-report lines for ``(label, seq, opcode, state, pending,
    addr)`` records: committed and already-listed instructions are
    skipped, and the dump stops after ``limit`` lines."""
    lines: list[str] = []
    seen: set[int] = set()
    for label, seq, opcode, state, pending, addr in entries:
        if seq in seen or state == COMMITTED:
            continue
        seen.add(seq)
        where = f" addr={addr:#x}" if addr is not None else ""
        lines.append(
            f"#{seq} {opcode} [{_STATE_NAMES.get(state, f's{state}')}/"
            f"{label}] pending={pending}{where}"
        )
        if len(lines) >= limit:
            lines.append("... (dump truncated)")
            break
    return lines


class DynInst:
    """A dynamic instance of a static CDFG node."""

    __slots__ = (
        "node", "seq", "state", "pending", "dependents", "operand_values",
        "result", "addr", "issue_cycle", "commit_cycle", "mem_request",
    )

    def __init__(self, node, seq: int) -> None:
        self.node = node
        self.seq = seq
        self.state = WAITING
        self.pending = 0
        self.dependents: list[DynInst] = []
        self.operand_values: dict[int, object] = {}
        self.result = None
        self.addr: Optional[int] = None
        self.issue_cycle = -1
        self.commit_cycle = -1
        self.mem_request: Optional[MemRequest] = None

    def __lt__(self, other: "DynInst") -> bool:
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<DynInst #{self.seq} {self.node.inst.opcode} s{self.state}>"


class _FUAllocator:
    """Tracks functional-unit availability.

    Dedicated units (1-to-1 default) allow one issue per cycle when
    pipelined, or one outstanding op when not.  Pooled classes allow
    ``limit`` issues per cycle (pipelined) or ``limit`` outstanding ops
    (non-pipelined).
    """

    def __init__(self, iface: LLVMInterface, issued_stat=None,
                 stalled_stat=None) -> None:
        self.iface = iface
        self._dedicated_last_issue: dict[tuple[str, int], int] = {}
        self._dedicated_busy_until: dict[tuple[str, int], int] = {}
        self._pool_issues: dict[str, tuple[int, int]] = {}  # class -> (cycle, count)
        self._pool_inflight: dict[str, int] = {}
        self.inflight_by_class: dict[str, int] = {}
        # Per-class issue accounting (engine-owned VectorStats).  Every
        # acquire attempt on a real FU class lands in exactly one of the
        # two; FU_NONE ops never consume a unit and are not counted.
        self.issued_stat = issued_stat
        self.stalled_stat = stalled_stat

    def _spec(self, fu_class: str):
        return self.iface.profile.spec_for(fu_class)

    def _stalled(self, fu_class: str) -> bool:
        if self.stalled_stat is not None:
            self.stalled_stat.inc(fu_class)
        return False

    def try_acquire(self, node, cycle: int) -> bool:
        fu_class = node.fu_class
        if fu_class == FU_NONE:
            return True
        spec = self._spec(fu_class)
        latency = self.iface.latency_for_class(fu_class)
        if node.fu_instance is not None:  # dedicated unit
            key = (fu_class, node.fu_instance)
            if spec.pipelined:
                if self._dedicated_last_issue.get(key, -1) >= cycle:
                    return self._stalled(fu_class)
                self._dedicated_last_issue[key] = cycle
            else:
                if self._dedicated_busy_until.get(key, -1) >= cycle:
                    return self._stalled(fu_class)
                self._dedicated_busy_until[key] = cycle + max(1, latency) - 1
        else:  # pooled
            limit = self.iface.cdfg.fu_counts.get(fu_class, 0)
            if spec.pipelined:
                stamp, count = self._pool_issues.get(fu_class, (-1, 0))
                if stamp != cycle:
                    count = 0
                if count >= limit:
                    return self._stalled(fu_class)
                self._pool_issues[fu_class] = (cycle, count + 1)
            else:
                if self._pool_inflight.get(fu_class, 0) >= limit:
                    return self._stalled(fu_class)
                self._pool_inflight[fu_class] = self._pool_inflight.get(fu_class, 0) + 1
        self.inflight_by_class[fu_class] = self.inflight_by_class.get(fu_class, 0) + 1
        if self.issued_stat is not None:
            self.issued_stat.inc(fu_class)
        return True

    def release(self, node) -> None:
        fu_class = node.fu_class
        if fu_class == FU_NONE:
            return
        spec = self._spec(fu_class)
        if node.fu_instance is None and not spec.pipelined:
            self._pool_inflight[fu_class] -= 1
        self.inflight_by_class[fu_class] -= 1

    def busy_units(self) -> dict[str, int]:
        result = {}
        for fu_class, inflight in self.inflight_by_class.items():
            if inflight <= 0:
                continue
            units = self.iface.cdfg.fu_counts.get(fu_class, 0)
            result[fu_class] = min(inflight, units) if units else inflight
        return result


class RuntimeEngine(SimObject):
    """The runtime scheduler / compute unit core."""

    def __init__(
        self,
        name: str,
        system: System,
        iface: LLVMInterface,
        memctrl: AcceleratorMemController,
        clock=None,
        trace: bool = False,
    ) -> None:
        super().__init__(name, system, clock)
        self.iface = iface
        self.config: DeviceConfig = iface.config
        self.memctrl = memctrl
        self.trace = trace
        self.occupancy = OccupancyTracker()
        # The `GraphScheduler` running this engine's kernel, if any: it
        # keeps ``running`` and ``committed`` current, and hang reports
        # describe its state instead of this engine's.
        self.driver = None

        self._seq = 0
        self._args: dict[Argument, object] = {}
        self._rename: dict[Value, DynInst] = {}
        self._ready: list[DynInst] = []          # heap by seq
        self._staged: list[DynInst] = []         # become ready next cycle (fetch)
        self._wake: list[DynInst] = []           # woken by commits (same cycle)
        self._window = 0                          # waiting+ready (not yet issued)
        self._mem_window: list[DynInst] = []      # outstanding memory ops
        self._fetch_queue: list[tuple[BasicBlock, Optional[BasicBlock]]] = []
        self._fetch_cursor = 0
        # Per-cycle FU issue accounting (issued/stalled acquire attempts
        # per class), surfaced through format_stats as
        # ``...engine.fu_issued::<class>`` / ``...engine.fu_issue_stalls::<class>``.
        self.stat_fu_issued = self.stats.vector(
            "fu_issued", "FU acquisitions per class")
        self.stat_fu_stalls = self.stats.vector(
            "fu_issue_stalls", "FU acquire attempts blocked per class")
        self._fu = _FUAllocator(iface, issued_stat=self.stat_fu_issued,
                                stalled_stat=self.stat_fu_stalls)
        self._inflight_compute = 0
        self._outstanding_reads = 0
        self._outstanding_writes = 0
        self._ret_seen = False
        self.running = False
        self._tick_event: Optional[Event] = None
        self._on_done: Optional[Callable[[], None]] = None
        self.start_cycle = -1
        self.end_cycle = -1
        # Monotonic commit counter; watchdogs read it to detect livelock
        # (engines are rebuilt per run, so it never needs resetting).
        self.committed = 0

        # Dynamic energy accounting (pJ).
        self.fu_energy_pj = 0.0
        self.register_energy_pj = 0.0

        self.stat_dyn_insts = self.stats.scalar("dynamic_instructions")
        self.stat_cycles = self.stats.scalar("active_cycles")
        self.stat_blocks = self.stats.scalar("blocks_fetched")
        self.stat_loads = self.stats.scalar("loads")
        self.stat_stores = self.stats.scalar("stores")

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------
    def start(self, arg_values: list, on_done: Optional[Callable[[], None]] = None) -> None:
        """Begin execution of the accelerated function."""
        if self.running:
            raise EngineError(f"{self.name}: already running")
        func = self.iface.func
        if len(arg_values) != len(func.args):
            raise EngineError(
                f"{self.name}: expected {len(func.args)} arguments, got {len(arg_values)}"
            )
        self._args = dict(zip(func.args, arg_values))
        self._on_done = on_done
        self.running = True
        self._ret_seen = False
        self.start_cycle = self.cur_cycle
        self._fetch_queue.append((func.entry, None))
        self._schedule_tick()

    @property
    def total_cycles(self) -> int:
        if self.start_cycle < 0:
            return 0
        end = self.end_cycle if self.end_cycle >= 0 else self.cur_cycle
        return end - self.start_cycle

    def runtime_ns(self) -> float:
        return self.total_cycles * self.config.cycle_time_ns

    # ------------------------------------------------------------------
    # Hang diagnosis (consumed by repro.faults.watchdog.SimWatchdog)
    # ------------------------------------------------------------------
    def inflight_summary(self) -> str:
        """One-line progress snapshot of the engine's in-flight state."""
        if self.driver is not None:
            return self.driver.inflight_summary()
        return inflight_line(
            self.name, self._window, self._outstanding_reads,
            self._outstanding_writes, self._inflight_compute, self.committed,
            self.cur_cycle)

    def inflight_dump(self, limit: int = 32) -> list[str]:
        """Human-readable lines for every not-yet-committed instruction.

        Covers the ready heap (in seq order), the fetch/wake staging
        lists, and the memory window — the queues a hang report needs to
        explain *what* the engine was waiting on.
        """
        if self.driver is not None:
            return self.driver.inflight_dump(limit)
        return inflight_lines(
            ((label, dyn.seq, dyn.node.inst.opcode, dyn.state, dyn.pending,
              dyn.addr)
             for label, group in (("ready", sorted(self._ready)),
                                  ("staged", self._staged),
                                  ("wake", self._wake),
                                  ("mem", self._mem_window))
             for dyn in group),
            limit)

    def _schedule_tick(self) -> None:
        if self._tick_event is not None and self._tick_event.scheduled():
            return
        self._tick_event = Event(self._tick, priority=Event.CPU_TICK_PRI, name=f"{self.name}.tick")
        self.schedule_in_cycles(self._tick_event, 1)

    # ------------------------------------------------------------------
    # Fetch (reservation queue filling)
    # ------------------------------------------------------------------
    def _pump_fetch(self) -> None:
        while self._fetch_queue and self._window < self.config.reservation_window:
            block, pred = self._fetch_queue[0]
            insts = block.instructions
            if self._fetch_cursor == 0:
                self.stat_blocks.inc()
            while self._fetch_cursor < len(insts) and self._window < self.config.reservation_window:
                self._fetch_inst(insts[self._fetch_cursor], pred)
                self._fetch_cursor += 1
            if self._fetch_cursor >= len(insts):
                self._fetch_queue.pop(0)
                self._fetch_cursor = 0
            else:
                return

    def _fetch_inst(self, inst: Instruction, pred: Optional[BasicBlock]) -> None:
        node = self.iface.cdfg.node_for(inst)
        dyn = DynInst(node, self._seq)
        self._seq += 1
        self.stat_dyn_insts.inc()

        operands = self._operands_for(inst, pred)
        for index, operand in enumerate(operands):
            self._bind_operand(dyn, index, operand)
        # Same-destination-register hazard: wait for the previous dynamic
        # instance of this static instruction.
        if inst.produces_value:
            previous = self._rename.get(inst)
            if previous is not None and previous.state != COMMITTED:
                dyn.pending += 1
                previous.dependents.append(dyn)
            self._rename[inst] = dyn
        if node.is_memory:
            self._mem_window.append(dyn)
        self._window += 1
        if dyn.pending == 0:
            dyn.state = READY
            self._staged.append(dyn)

    @staticmethod
    def _operands_for(inst: Instruction, pred: Optional[BasicBlock]) -> list[Value]:
        if isinstance(inst, Phi):
            if pred is None:
                raise EngineError(f"phi {inst.ref} in entry block")
            return [inst.incoming_for(pred)]
        if isinstance(inst, Branch) and inst.is_conditional:
            return [inst.condition]
        if isinstance(inst, Branch):
            return []
        return list(inst.operands)

    def _bind_operand(self, dyn: DynInst, index: int, operand: Value) -> None:
        if isinstance(operand, Constant):
            dyn.operand_values[index] = operand.value
        elif isinstance(operand, Argument):
            dyn.operand_values[index] = self._args[operand]
        elif isinstance(operand, Instruction):
            producer = self._rename.get(operand)
            if producer is None:
                # Defined in a block not yet executed on this path —
                # legal only for values that are never actually used;
                # treat as zero.
                dyn.operand_values[index] = 0
            elif producer.state == COMMITTED:
                dyn.operand_values[index] = producer.result
            else:
                dyn.pending += 1
                producer.dependents.append((dyn, index))
                return
        else:
            raise EngineError(f"cannot bind operand {operand!r}")
        self._maybe_resolve_addr(dyn, index)

    @staticmethod
    def _maybe_resolve_addr(dyn: DynInst, index: int) -> None:
        # Resolve a memory op's address as soon as the address operand
        # lands, so disambiguation does not over-serialize on stores
        # whose *data* is still in flight.
        if dyn.node.is_load and index == 0:
            dyn.addr = dyn.operand_values[0]
        elif dyn.node.is_store and index == 1:
            dyn.addr = dyn.operand_values[1]

    # ------------------------------------------------------------------
    # The per-cycle tick
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        self._tick_event = None
        cycle = self.cur_cycle
        self.stat_cycles.inc()

        # Newly fetched / newly woken instructions become schedulable.
        self._pump_fetch()
        for dyn in self._staged:
            heapq.heappush(self._ready, dyn)
        self._staged = []
        for dyn in self._wake:
            heapq.heappush(self._ready, dyn)
        self._wake = []

        issued_classes: list[str] = []
        issued_kinds: set[str] = set()
        issued_total = 0
        retry: list[DynInst] = []
        while self._ready:
            dyn = heapq.heappop(self._ready)
            outcome = self._try_issue(dyn, cycle, issued_classes, issued_kinds)
            if not outcome:
                retry.append(dyn)
                continue
            issued_total += 1
            # Zero-latency commits chain combinationally within the cycle.
            for woken in self._wake:
                heapq.heappush(self._ready, woken)
            self._wake = []
        for dyn in retry:
            heapq.heappush(self._ready, dyn)

        self.memctrl.pump()

        outstanding = set()
        if self._outstanding_reads:
            outstanding.add("load")
        if self._outstanding_writes:
            outstanding.add("store")
        if self._inflight_compute:
            outstanding.add("compute")
        blocked_kinds: dict[str, int] = {}
        for dyn in retry:
            if dyn.node.is_load:
                kind = "load"
            elif dyn.node.is_store:
                kind = "store"
            else:
                kind = "compute"
            blocked_kinds[kind] = blocked_kinds.get(kind, 0) + 1
        self.occupancy.record_cycle(
            issued=issued_classes,
            outstanding_kinds=frozenset(outstanding),
            busy_units=self._fu.busy_units(),
            issued_kinds=frozenset(issued_kinds),
            blocked_kinds=blocked_kinds,
            issued_total=issued_total,
        )
        probe = self._probe
        if probe is not None and probe.enabled("sched"):
            # Sec. III-C2's per-cycle scheduling log: what issued, what
            # stalled (and why), what is still in flight.
            probe.emit(
                "sched", self.name, "cycle", self.clock.cycles_to_ticks(cycle),
                dur=self.clock.period,
                args={"issued": issued_total, "blocked": dict(blocked_kinds),
                      "outstanding": sorted(outstanding)},
            )

        if self._finished():
            self._complete()
            return
        self._schedule_tick()

    def _finished(self) -> bool:
        return (
            self._ret_seen
            and not self._ready
            and not self._staged
            and not self._wake
            and not self._fetch_queue
            and self._window == 0
            and self._inflight_compute == 0
            and self._outstanding_reads == 0
            and self._outstanding_writes == 0
        )

    def _complete(self) -> None:
        self.end_cycle = self.cur_cycle
        self.running = False
        self._mem_window.clear()
        if self._on_done is not None:
            done, self._on_done = self._on_done, None
            done()

    # ------------------------------------------------------------------
    # Issue
    # ------------------------------------------------------------------
    def _try_issue(self, dyn: DynInst, cycle: int, issued_classes, issued_kinds) -> bool:
        node = dyn.node
        inst = node.inst

        if node.is_load:
            return self._issue_load(dyn, issued_kinds)
        if node.is_store:
            return self._issue_store(dyn, issued_kinds)

        if node.is_compute and not self._fu.try_acquire(node, cycle):
            return False

        dyn.state = ISSUED
        dyn.issue_cycle = cycle
        self._window -= 1

        if node.is_compute:
            spec = self.iface.profile.spec_for(node.fu_class)
            self.fu_energy_pj += spec.dynamic_energy_pj
            issued_classes.append(node.fu_class)
            issued_kinds.add("fp" if node.fu_class.startswith("fp_") else "int")
            self._register_read_energy(inst)
            self._inflight_compute += 1

        result = self._execute(dyn)
        latency = self.iface.latency_for_class(node.fu_class) if node.is_compute else 0

        if node.is_branch:
            target = self._branch_target(dyn)
            self._fetch_queue.append((target, inst.parent))
        elif node.is_ret:
            self._ret_seen = True

        if latency == 0:
            if node.is_compute:
                self._commit_compute(dyn, result)
            else:
                self._commit(dyn, result)
        else:
            self.eventq.schedule_callback(
                lambda d=dyn, r=result: self._commit_compute(d, r),
                self.clock_edge(latency),
                name=f"{self.name}.commit",
            )
        return True

    def _commit_compute(self, dyn: DynInst, result) -> None:
        self._inflight_compute -= 1
        self._fu.release(dyn.node)
        self._commit(dyn, result)

    def _commit(self, dyn: DynInst, result) -> None:
        dyn.state = COMMITTED
        dyn.result = result
        dyn.commit_cycle = self.cur_cycle
        self.committed += 1
        probe = self._probe
        if probe is not None and probe.enabled("compute"):
            self._trace_commit(dyn)
        if dyn.node.result_bits:
            self.register_energy_pj += (
                dyn.node.result_bits * self.iface.profile.register.write_energy_pj_per_bit
            )
        for entry in dyn.dependents:
            if isinstance(entry, tuple):
                dependent, index = entry
                dependent.operand_values[index] = result
                self._maybe_resolve_addr(dependent, index)
            else:
                dependent = entry
            dependent.pending -= 1
            if dependent.pending == 0 and dependent.state == WAITING:
                dependent.state = READY
                self._wake.append(dependent)
        dyn.dependents.clear()

    # ------------------------------------------------------------------
    # Tracing (the bus's ``compute`` channel; cycle-neutral)
    # ------------------------------------------------------------------
    def _trace_commit(self, dyn: DynInst) -> None:
        # One span per dynamic instruction, issue edge -> commit edge.
        period = self.clock.period
        args = {"seq": dyn.seq}
        if dyn.addr is not None:
            args["addr"] = dyn.addr
        self._probe.emit(
            "compute", self.name, dyn.node.inst.opcode,
            dyn.issue_cycle * period,
            dur=(dyn.commit_cycle - dyn.issue_cycle) * period,
            args=args,
        )

    def _register_read_energy(self, inst: Instruction) -> None:
        bits = 0
        for operand in inst.operands:
            if isinstance(operand, (Instruction, Argument)) and operand.type.is_scalar:
                bits += operand.type.bit_width()
        self.register_energy_pj += bits * self.iface.profile.register.read_energy_pj_per_bit

    # ------------------------------------------------------------------
    # Execution semantics (execute-in-execute)
    # ------------------------------------------------------------------
    def _execute(self, dyn: DynInst):
        inst = dyn.node.inst
        vals = dyn.operand_values
        if isinstance(inst, BinaryOp):
            return eval_binop(inst.opcode, inst.type, vals[0], vals[1])
        if isinstance(inst, ICmp):
            return eval_icmp(inst.pred, inst.operands[0].type, vals[0], vals[1])
        if isinstance(inst, FCmp):
            return eval_fcmp(inst.pred, vals[0], vals[1])
        if isinstance(inst, Select):
            return vals[1] if vals[0] else vals[2]
        if isinstance(inst, Cast):
            return eval_cast(inst.opcode, inst.src.type, inst.type, vals[0])
        if isinstance(inst, GetElementPtr):
            indices = [
                signed_operand(vals[i + 1], idx.type)
                for i, idx in enumerate(inst.indices)
            ]
            return gep_address(inst, vals[0], indices)
        if isinstance(inst, Phi):
            return vals[0]
        if isinstance(inst, Call):
            if not inst.is_intrinsic:
                raise EngineError(f"{self.name}: {trap_reason(inst)}")
            args = [vals[i] for i in range(len(inst.operands))]
            return eval_intrinsic(inst.callee, inst.type, args)
        if isinstance(inst, (Branch, Ret)):
            return None
        if isinstance(inst, Alloca):
            raise EngineError(f"{self.name}: {trap_reason(inst)}")
        raise EngineError(f"{self.name}: cannot execute '{inst.opcode}'")

    def _branch_target(self, dyn: DynInst) -> BasicBlock:
        inst = dyn.node.inst
        assert isinstance(inst, Branch)
        if not inst.is_conditional:
            return inst.true_target
        return inst.true_target if dyn.operand_values[0] else inst.false_target

    # ------------------------------------------------------------------
    # Memory
    # ------------------------------------------------------------------
    def _conflicts(self, dyn: DynInst) -> bool:
        """Runtime disambiguation: earlier conflicting accesses in flight."""
        addr = dyn.addr
        size = dyn.node.inst.type.size_bytes() if dyn.node.is_load else dyn.node.inst.value.type.size_bytes()
        strict = self.memctrl.is_strict(addr)
        for other in self._mem_window:
            if other.seq >= dyn.seq:
                break
            if other.state == COMMITTED:
                continue
            # Strictly-ordered device regions (stream FIFOs): accesses
            # must *enter the request queue* in program order, but may
            # pipeline — the FIFO services them in arrival order.
            if strict and other.addr is not None and other.addr == addr:
                if other.state == ISSUED:
                    continue  # already queued ahead of us, order preserved
                return True   # earlier access not queued yet: wait
            # Loads only conflict with earlier stores.
            if dyn.node.is_load and other.node.is_load:
                continue
            if other.addr is None:
                return True  # unresolved earlier address: conservative
            other_size = (
                other.node.inst.type.size_bytes()
                if other.node.is_load
                else other.node.inst.value.type.size_bytes()
            )
            if addr < other.addr + other_size and other.addr < addr + size:
                return True
        return False

    def _issue_load(self, dyn: DynInst, issued_kinds: set) -> bool:
        inst = dyn.node.inst
        if dyn.addr is None:
            dyn.addr = dyn.operand_values[0]
        if self._conflicts(dyn):
            return False
        if self._outstanding_reads >= self.config.read_queue_size:
            return False
        dyn.state = ISSUED
        dyn.issue_cycle = self.cur_cycle
        self._window -= 1
        self._outstanding_reads += 1
        self.stat_loads.inc()
        issued_kinds.add("load")
        size = inst.type.size_bytes()
        dyn.mem_request = self.memctrl.enqueue_read(
            dyn.addr, size, lambda req, d=dyn: self._load_done(d, req)
        )
        return True

    def _load_done(self, dyn: DynInst, request: MemRequest) -> None:
        self._outstanding_reads -= 1
        value = bytes_to_value(request.result, dyn.node.inst.type)
        self._mem_window.remove(dyn)
        self._commit(dyn, value)
        self._schedule_tick()

    def _issue_store(self, dyn: DynInst, issued_kinds: set) -> bool:
        inst = dyn.node.inst
        if dyn.addr is None:
            dyn.addr = dyn.operand_values[1]
        if self._conflicts(dyn):
            return False
        if self._outstanding_writes >= self.config.write_queue_size:
            return False
        dyn.state = ISSUED
        dyn.issue_cycle = self.cur_cycle
        self._window -= 1
        self._outstanding_writes += 1
        self.stat_stores.inc()
        issued_kinds.add("store")
        data = value_to_bytes(dyn.operand_values[0], inst.value.type)
        dyn.mem_request = self.memctrl.enqueue_write(
            dyn.addr, data, lambda req, d=dyn: self._store_done(d)
        )
        return True

    def _store_done(self, dyn: DynInst) -> None:
        self._outstanding_writes -= 1
        self._mem_window.remove(dyn)
        self._commit(dyn, None)
        self._schedule_tick()
