"""`GraphScheduler`: the backend half of the graph-compiled engine.

Executes a `SimGraph` with a flat per-cycle loop instead of the
per-instruction `EventQueue` events of the dynamic engine.  Each cycle
is one iteration: drain the completions due by this cycle (compute
commits and memory completions, in the order the event queue fires
them: DEFAULT_PRI before the engine tick's CPU_TICK_PRI, then
scheduling order), then run the tick phases in the dynamic engine's
order (fetch, wake, gated issue, memory pump, occupancy).

Issue takes ready ops in seq order, as the dynamic engine pops its
ready heap, and each op that cannot issue waits for the next cycle.
Most refusals come from a shared resource that stays full for the rest
of the cycle: the read queue, the write queue, or a pooled FU class at
its limit (nothing frees a slot or a unit mid-issue).  That resource is
the op's *gate* (`SimGraph.fu_binding`); the gate is tested before the
conflict scan and the FU acquire.  A refused op is *parked* behind its
gate, in seq order, instead of going back on the heap.  Next cycle the
gate's parked ops return to the heap one at a time: the first at the
start of the issue phase, the next each time one passes the gate (and
then issues or loses to an address conflict).  When the gate refuses
its parked op on the heap, every op behind it is refused with it in
bulk, at that point in seq order.  Issue order is therefore exactly
seq order, which the float energy sums depend on, and the per-kind
refusal counts (`blocked_by_kind`, the ``sched`` trace payload) and
per-class stall counts keep their values and their first-refusal key
order.  Dedicated units have no gate: an op a busy dedicated unit
refuses goes back on the heap for the next cycle.

The loop is driven from the event queue like `RuntimeEngine`:
`ComputeUnit.launch` (the one launch path, for host MMR starts and
standalone runs alike) calls `start`, which schedules a CPU_TICK_PRI
tick event at ``clock_edge(1)`` — also for a launch that lands
mid-cycle, where that edge is two cycles past ``start_cycle`` — and
each firing runs cycles ahead
for as long as `EventQueue.try_advance` finds nothing else due and the
running ``max_tick`` allows.  When something is due it reschedules the
tick for the next cycle and suspends (the loop is a generator), so
every other event fires at its own (tick, priority, sequence) slot and
simulated time is ``cycle * period`` throughout a cycle.  The final
tick calls ``on_done``; whatever the memory system still has scheduled
(writebacks) fires afterwards, as in a dynamic run.

A watched run stays on this loop.  While it runs, the driven
`RuntimeEngine` reports ``running`` and names the scheduler as its
``driver``; ``committed`` is published at every suspension and before
every check.  The loop calls the run's watchdog (`EventQueue.watchdog`)
every ``interval`` cycles, because an inline-memory run is a single
event and `EventQueue.run` only checks between events.  Hang reports
list the ready ops (on the heap or parked) in seq order, then the
memory window, in the engine's format.

The contract is **byte-identical stats**: every counter, float energy
accumulation (same addition order, so no float drift), occupancy
record, and memory image byte matches `RuntimeEngine`, and a run that
issues a trap node fails with the same `EngineError` text.  Where the
dynamic engine consults live objects (profile specs, CDFG nodes), this
loop reads the flat arrays and operand tables `compile_graph` built
once per graph; a run binds only its argument values (`SimGraph.bind`)
and its FU limits (`SimGraph.fu_binding`, built once per limits).
Memory goes one of two ways:

* **Inline model**, when the unit hands over its private SPM
  (`ComputeUnit.inline_spm`: the memctrl's only route is that SPM, the
  SPM has one port, as in standalone ``memory="spm"`` or ``"ideal"``,
  and no observer watches memory).  The loop models the memory
  system's timing itself and never touches the event queue, so a
  standalone run is one uninterrupted loop inside one tick event:

  - memory controller: per-cycle read/write port limits, FIFO queues,
    stall counting (``stat.inc(len(queue))`` per blocked cycle), reads
    pumped before writes;
  - scratchpad: per-(cycle, bank) port usage with first-free-slot
    search, bank-conflict counting, completion at ``slot +
    latency_cycles`` with the image access performed at completion;
  - ideal memory: functional access at pump, completion one cycle
    later, no SPM accounting, matching `AcceleratorMemController.ideal`.

* **Port-backed**, otherwise (``memory="cache"``, fault injection or
  the sanitizer, and every cluster unit: its private SPM is also on
  the local crossbar for the DMA).
  Loads and stores go through the real `AcceleratorMemController`:
  ``enqueue_read`` / ``enqueue_write`` at issue, ``pump()`` in the
  memory phase, and from there to the SPM, crossbar, stream or
  cache → DRAM ports.  Ordering rule: register write
  energy is a float sum in commit order, so compute commits and port
  completions must interleave exactly as the event queue orders them.
  Compute commits stay off the queue: a cycle's commits, one batch per
  completion cycle, go on the loop's own heap keyed ``(tick,
  DEFAULT_PRI, seq)``, with ``seq`` reserved from the queue after the
  issue phase and before the pump, just where the dynamic engine
  schedules its commit events.  The memctrl's completion callback
  records each arrival with the key of the event firing it
  (`EventQueue.firing_key`), and a cycle's drain merges the due
  batches into the arrivals by key.  The loop thus runs ahead through
  cycles where only its own commits are due.

Static disambiguation: the only use of `repro.analysis.memdep` facts is
a *fast path inside* the conflict scan, applied strictly after the
"unresolved earlier address" conservatism — a pair is skipped without
overlap arithmetic only when both addresses are resolved AND the
accesses have distinct root pointer arguments (disjoint staged buffers)
or the same root with non-overlapping constant offsets (identical to
the runtime arithmetic by construction).  Conflict outcomes are
therefore exactly the dynamic engine's.  Loads, which only conflict
with earlier stores, scan a window of outstanding stores alone.  An
access to a strictly-ordered region (a stream window) first applies
`RuntimeEngine._conflicts`' strict rule over the whole window, loads
included: an earlier same-address access blocks unless it is already
``ISSUED``.

Dynamic instruction instances (the mirror of `DynInst`) are plain
lists, the cheapest record to allocate and index in CPython:

    [node, seq, state, pending, dependents, vals, result, addr, data,
     issue_cycle]
      0     1     2       3         4         5      6      7     8
      9

Sequence numbers are unique, so the ready heap stores ``(seq, dyn)``
tuples and never compares the lists themselves.

At run end the scheduler writes its counters back into the *same* stat
objects (`RuntimeEngine`, and with the inline model memctrl and SPM;
port-backed memory counts its own) so `System.dump_stats()`,
`RunResult`, and the power report are indistinguishable from a dynamic
run.
"""

from __future__ import annotations

import gc
import heapq
import sys
from typing import Callable, Optional

from repro.core.occupancy import ISSUE_KINDS
from repro.core.runtime import (
    COMMITTED,
    ISSUED,
    READY,
    WAITING,
    EngineError,
    inflight_line,
    inflight_lines,
)
from repro.engine.graph import (
    GATE_POOL,
    GATE_READ,
    GATE_WRITE,
    K_BRANCH,
    K_COMPUTE,
    K_LOAD,
    K_RET,
    K_STORE,
    NodeTrap,
    SimGraph,
)
from repro.sim.eventq import Event

# Completion-bucket entry tags.
_EV_COMMIT = 0  # compute commit
_EV_SPM = 1     # SPM timing completion (image access happens now)
_EV_IDEAL = 2   # ideal-memory completion (data captured at pump)
_EV_PORT = 3    # memctrl completion (data and completion cycle captured)

_NEVER = sys.maxsize  # the next-check cycle of an unwatched run


class GraphScheduler:
    """Executes one kernel invocation over a compiled `SimGraph`."""

    def __init__(self, graph: SimGraph, unit) -> None:
        self.graph = graph
        self.unit = unit
        self.engine = unit.engine
        self.memctrl = unit.comm.memctrl
        # The scratchpad the inline model owns; None drives every access
        # through the memctrl's ports.
        self.spm = unit.inline_spm()
        self._cycles = None  # the suspended cycle loop
        self._tick_event = Event(self.run, priority=Event.CPU_TICK_PRI,
                                 name=f"{self.engine.name}.tick")
        # Hang-report view of the loop, refreshed at every watchdog
        # check and every suspension (see _publish).
        self._ready: list = []
        self._parked: list = []
        self._mem_window: list = []
        self._counts = (0, 0, 0, 0)  # window, reads, writes, compute

    # ------------------------------------------------------------------
    def start(self, arg_values: list,
              on_done: Optional[Callable[[], None]] = None) -> None:
        """Launch: the first tick fires at ``clock_edge(1)``, as in
        `RuntimeEngine.start`; ``on_done`` runs in the final tick.

        A launch off the clock edge (a host MMR write lands mid-cycle)
        starts in cycle ``c`` but first ticks in ``c + 2``, so the loop's
        first cycle is taken from that edge here, not from
        ``start_cycle``."""
        engine = self.engine
        if engine.running:
            raise EngineError(f"{engine.name}: already running")
        if len(arg_values) != self.graph.arg_count:
            raise EngineError(
                f"{engine.name}: expected {self.graph.arg_count} arguments, "
                f"got {len(arg_values)}"
            )
        engine.start_cycle = engine.cur_cycle
        engine.running = True
        engine.driver = self
        first_tick = engine.clock_edge(1)
        self._cycles = self._loop(list(arg_values),
                                  first_tick // engine.clock.period, on_done)
        engine.eventq.schedule(self._tick_event, first_tick)

    def run(self) -> None:
        """The tick event: simulate cycles until the kernel finishes or
        the event queue has something due first (the loop then
        reschedules this event and suspends).

        The hot loop allocates tens of thousands of short-lived,
        acyclic records (dyn lists, operand vectors, bucket entries);
        generation-0 collections are pure overhead on them, so the
        collector is paused while the loop runs and restored after.

        A trap node that issues ends the run with the dynamic engine's
        `EngineError` text: the engine's name is added here, outside
        the loop, because the graph is shared by every unit.
        """
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            next(self._cycles, None)
        except NodeTrap as trap:
            raise EngineError(f"{self.engine.name}: {trap}") from None
        finally:
            if gc_was_enabled:
                gc.enable()

    # -- hang diagnosis (through RuntimeEngine.inflight_*) ---------------
    def _publish(self, committed: int, window: int, reads: int, writes: int,
                 compute: int) -> None:
        """Make the loop's progress visible to a watchdog check."""
        self.engine.committed = committed
        self._counts = (window, reads, writes, compute)

    def inflight_summary(self) -> str:
        engine = self.engine
        return inflight_line(engine.name, *self._counts, engine.committed,
                             engine.cur_cycle)

    def inflight_dump(self, limit: int = 32) -> list[str]:
        """Ready ops (on the heap or parked at a gate) in seq order,
        then the memory window."""
        insts = self.graph.insts
        ready = sorted(self._ready + [entry for line in self._parked
                                      for entry in line])
        return inflight_lines(
            ((label, dyn[1], insts[dyn[0]].opcode, dyn[2], dyn[3], dyn[7])
             for label, group in (("ready", [dyn for __, dyn in ready]),
                                  ("mem", self._mem_window))
             for dyn in group),
            limit)

    @staticmethod
    def _next_check(watchdog, cycle: int) -> int:
        """Cycle of the next watchdog check after ``cycle``."""
        if watchdog is None:
            return _NEVER
        return cycle + max(1, int(getattr(watchdog, "interval", 256)))

    def _loop(self, args: list, first_cycle: int,
              on_done: Optional[Callable[[], None]]):
        g = self.graph
        engine = self.engine
        memctrl = self.memctrl
        spm = self.spm
        config = engine.config
        eventq = engine.eventq
        tick_event = self._tick_event

        # -- flat graph arrays, bound to locals for the hot loop --------
        kind = g.kind
        addr_index = g.addr_index
        produces_value = g.produces_value
        blocks = g.blocks
        block_of = g.block_of
        pipelined = g.pipelined
        latency = g.latency
        dyn_energy = g.dyn_energy
        read_energy = g.read_energy
        write_energy = g.write_energy
        issue_kind = g.issue_kind
        mem_size = g.mem_size
        mem_root = g.mem_root
        mem_offset = g.mem_offset
        br_cond = g.br_cond
        br_true = g.br_true
        br_false = g.br_false
        evals = g.evals
        insts = g.insts

        clock = engine.clock
        period = clock.period
        resw = config.reservation_window
        read_q_size = config.read_queue_size
        write_q_size = config.write_queue_size
        ideal = memctrl.ideal
        ideal_lat = memctrl.ideal_latency_cycles
        mem_read_ports = memctrl.read_ports
        mem_write_ports = memctrl.write_ports
        # The inline model owns the memory system when the unit handed
        # over its SPM; otherwise every access goes through the memctrl.
        inline = spm is not None
        if inline:
            image = spm.image
            spm_lat = spm.latency_cycles
            spm_read_ports = spm.read_ports
            spm_write_ports = spm.write_ports
            spm_bank_of = spm.bank_of
            spm_name = spm.name
        strict_spans = memctrl.strict_spans
        enqueue_read = memctrl.enqueue_read
        enqueue_write = memctrl.enqueue_write
        hub = engine._probe
        occupancy = engine.occupancy
        trace_mem = inline and hub is not None and hub.enabled("mem")
        trace_compute = hub is not None and hub.enabled("compute")
        trace_sched = hub is not None and hub.enabled("sched")
        memctrl_name = memctrl.name
        engine_name = engine.name
        reserve_seq = eventq.reserve_seq

        # -- the graph's operand tables, with this run's argument values
        # bound in.  ``init_vals[nid]`` is the operand value list with
        # ``None`` at producer-fed slots (shared, not copied, when a node
        # has no producer-fed slots — nothing ever writes to it then);
        # ``dep_binds[nid]`` lists ``(index, producer_nid, is_addr)``.
        init_vals, phi_binds = g.bind(args)
        dep_binds = g.dep_binds
        is_mem = g.is_mem
        decoders, encoders = g.codecs
        cls_ids = g.cls_ids
        class_names = g.class_names
        # This run's FU limits: issue gates (pooled compute ops have
        # one) and units per class.
        gate_of, units_arr = g.fu_binding(engine.iface.cdfg)

        # -- run state ---------------------------------------------------
        seq = 0
        last_inst: list = [None] * g.n_nodes  # node id -> last dyn record
        # Newly-ready work (fetched with no pending deps, or woken by a
        # commit) is pushed straight onto this heap: nothing observes
        # the dynamic engine's staged/wake staging lists between their
        # fill and drain, and pop order is seq-keyed either way.
        ready: list[tuple[int, list]] = []
        # Ready ops their gate refused wait in ``parked[gate]`` as
        # ``(seq, dyn)`` for the next cycle; ``waiting_gates`` lists the
        # gates with parked ops.  In a cycle a gate's parked ops go back
        # on the heap one at a time, in seq order: ``queued[gate]``
        # iterates over the rest, ``heads[gate]`` is the one on the heap.
        n_gates = GATE_POOL + len(class_names)
        parked: list[list] = [[] for __ in range(n_gates)]
        waiting_gates: list[int] = []
        queued: list = [None] * n_gates
        heads: list = [None] * n_gates
        window = 0
        mem_window: list = []    # outstanding memory ops, in seq order
        store_window: list = []  # its stores: all a load can conflict with
        self._ready, self._parked = ready, parked
        self._mem_window = mem_window
        fetch_queue: list[tuple[int, int]] = [(g.entry_block, -1)]
        fetch_cursor = 0
        inflight_compute = 0
        outstanding_reads = 0
        outstanding_writes = 0
        ret_seen = False

        # FU allocator state (mirror of _FUAllocator, satellite stats
        # included: issued/stalled per class, attempt-for-attempt).
        # Classes are interned to small ints for the hot counters; the
        # first-success / first-stall orders are tracked so the written-
        # back VectorStat keys (and busy_units dict keys) appear in
        # exactly the order the dynamic allocator would create them.
        ded_last_issue = [-1] * g.n_nodes   # dedicated units are 1:1 with nodes
        ded_busy_until = [-1] * g.n_nodes
        n_cls = len(class_names)
        pool_stamp = [-1] * n_cls
        pool_count = [0] * n_cls
        pool_inflight = [0] * n_cls
        inflight_arr = [0] * n_cls
        fu_issued_arr = [0] * n_cls
        fu_stalled_arr = [0] * n_cls
        issue_order: list[int] = []   # class ids, first successful acquire
        stall_order: list[int] = []   # class ids, first blocked acquire

        # Memory model state.
        from collections import deque
        read_queue: deque = deque()
        write_queue: deque = deque()
        stall_reads = 0
        stall_writes = 0
        m_reads = 0
        m_writes = 0
        m_bytes = 0
        spm_usage: dict[tuple[int, int], list[int]] = {}
        spm_prune = 0
        spm_reads = 0
        spm_writes = 0
        spm_conflicts = 0

        # Per-cycle completion buckets: cycle -> [(tag, dyn, payload,
        # pump_cycle)], appended in scheduling order.  With port-backed
        # memory a cycle's buckets instead move to ``commits`` as
        # ``(tick, DEFAULT_PRI, seq, batch)``, keyed as the event queue
        # would key an event scheduled there, and the memctrl's
        # completions append ``(firing key, entry)`` to ``arrived`` in
        # the order the queue fires them; the next cycle merges the two.
        buckets: dict[int, list] = {}
        buckets_get = buckets.get
        commits: list = []
        arrived: list = []

        # Inline occupancy accounting: the same arithmetic (and the
        # same dict-key insertion order) as OccupancyTracker's
        # record_cycle, accumulated in locals and merged into the
        # tracker at write-back.  The 8 possible outstanding-kind
        # combinations are pre-built frozensets indexed by a bitmask.
        occ_issue_cycles = 0
        occ_stall_cycles = 0
        occ_idle_cycles = 0
        occ_issued_total = 0
        occ_blocked_ops = 0
        occ_issue_kind_cycles: dict[str, int] = {}
        occ_blocked_by_kind: dict[str, int] = {}
        occ_fu_busy: dict[str, int] = {}
        occ_stall_sources: dict[frozenset, int] = {}
        outstanding_table = (
            frozenset(), frozenset(("load",)), frozenset(("store",)),
            frozenset(("load", "store")), frozenset(("compute",)),
            frozenset(("load", "compute")), frozenset(("store", "compute")),
            frozenset(("load", "store", "compute")),
        )
        # A cycle's issue kinds are a 4-bit mask (bit i: ISSUE_KINDS[i]);
        # ``kind_table[mask]`` lists them in the tracker's recording order.
        kind_bit = {name: 1 << i for i, name in enumerate(ISSUE_KINDS)}
        load_bit = kind_bit["load"]
        store_bit = kind_bit["store"]
        kind_table = tuple(
            tuple(name for i, name in enumerate(ISSUE_KINDS) if mask >> i & 1)
            for mask in range(1 << len(ISSUE_KINDS)))

        # Counters written back into the engine's stats at the end.
        n_cycles = 0
        n_dyn_insts = 0
        n_blocks = 0
        n_loads = 0
        n_stores = 0
        n_committed = 0
        committed_base = engine.committed
        fu_energy = engine.fu_energy_pj
        reg_energy = engine.register_energy_pj

        heappush = heapq.heappush
        heappop = heapq.heappop

        # -- inner helpers ----------------------------------------------
        def commit(dyn: list, result, cycle: int) -> None:
            nonlocal n_committed, reg_energy
            dyn[2] = COMMITTED     # state
            dyn[6] = result
            n_committed += 1
            if trace_compute:
                cargs = {"seq": dyn[1]}
                if dyn[7] is not None:
                    cargs["addr"] = dyn[7]
                hub.emit(
                    "compute", engine_name, insts[dyn[0]].opcode,
                    dyn[9] * period,
                    dur=(cycle - dyn[9]) * period,
                    args=cargs,
                )
            we = write_energy[dyn[0]]
            if we:
                reg_energy += we
            for entry in dyn[4]:
                if type(entry) is tuple:
                    dependent, index, is_addr = entry
                    dependent[5][index] = result
                    if is_addr:
                        dependent[7] = result
                else:
                    dependent = entry
                dependent[3] -= 1
                if dependent[3] == 0 and dependent[2] == WAITING:
                    dependent[2] = READY
                    heappush(ready, (dependent[1], dependent))
            dyn[4] = []

        def conflicts(dyn: list) -> bool:
            addr = dyn[7]
            nid = dyn[0]
            my_seq = dyn[1]
            size = mem_size[nid]
            is_load = kind[nid] == K_LOAD
            root = mem_root[nid]
            offset = mem_offset[nid]
            # Strictly-ordered regions (stream FIFOs): same-address
            # accesses enter the request queue in program order but may
            # pipeline, so a strict access scans every earlier access,
            # loads included, before the usual rules.
            strict = False
            for lo, hi in strict_spans:
                if lo <= addr < hi:
                    strict = True
                    break
            # Loads only conflict with earlier stores.
            for other in (mem_window if strict or not is_load
                          else store_window):
                if other[1] >= my_seq:
                    break
                onid = other[0]
                other_addr = other[7]
                if strict:
                    if other_addr == addr:
                        if other[2] == ISSUED:
                            continue  # queued ahead of us: order kept
                        return True   # not queued yet: wait for it
                    if is_load and kind[onid] == K_LOAD:
                        continue
                if other_addr is None:
                    return True  # unresolved earlier address: conservative
                # Static fast path (memdep): provably disjoint once both
                # addresses are resolved — same outcome, no arithmetic.
                oroot = mem_root[onid]
                if root >= 0 and oroot >= 0:
                    if root != oroot:
                        continue  # distinct restrict args: disjoint buffers
                    ooffset = mem_offset[onid]
                    if (offset is not None and ooffset is not None
                            and (offset + size <= ooffset
                                 or ooffset + mem_size[onid] <= offset)):
                        continue
                other_size = mem_size[onid]
                if addr < other_addr + other_size and other_addr < addr + size:
                    return True
            return False

        def fu_stall(ci: int, n: int) -> None:
            if fu_stalled_arr[ci] == 0:
                stall_order.append(ci)
            fu_stalled_arr[ci] += n

        def park(dyn: list, gate: int, key: str, blocked: dict) -> int:
            """Park ``dyn`` behind ``gate`` until the next cycle (the
            gate refused it, or it lost to an address conflict); returns
            how many ops that refuses.  A gate that refuses stays closed
            for the rest of the cycle (nothing frees a queue slot or a
            pooled unit mid-issue), so when ``dyn`` is the gate's queued
            op on the heap, the ops queued behind it are refused with
            it, in bulk, at the point in seq order where the first
            would be."""
            line = parked[gate]
            if not line:
                waiting_gates.append(gate)
            line.append((dyn[1], dyn))
            n = 1
            if heads[gate] is dyn:
                heads[gate] = None
                rest = list(queued[gate])
                line.extend(rest)
                n += len(rest)
            blocked[key] = blocked.get(key, 0) + n
            return n

        def advance(gate: int) -> None:
            """The gate let its queued op through: queue the next one."""
            entry = next(queued[gate], None)
            if entry is None:
                heads[gate] = None
            else:
                heads[gate] = entry[1]
                heappush(ready, entry)

        def emit_mem_trace(dyn: list, pump_cycle: int, cycle: int,
                           with_spm: bool) -> None:
            nid = dyn[0]
            op = "read" if kind[nid] == K_LOAD else "write"
            tick = pump_cycle * period
            dur = (cycle - pump_cycle) * period
            if with_spm:
                hub.emit("mem", spm_name, op, tick, dur=dur,
                         args={"addr": dyn[7], "size": mem_size[nid],
                               "bank": spm_bank_of(dyn[7])})
            hub.emit("mem", memctrl_name, op, tick, dur=dur,
                     args={"addr": dyn[7], "size": mem_size[nid]})

        pump_spec = ((read_queue, True, mem_read_ports),
                     (write_queue, False, mem_write_ports))

        def pump_memory(cycle: int) -> None:
            nonlocal stall_reads, stall_writes, m_reads, m_writes, m_bytes
            nonlocal spm_prune, spm_conflicts
            for queue, is_read, limit in pump_spec:
                issued = 0
                while queue:
                    if not ideal and issued >= limit:
                        if is_read:
                            stall_reads += len(queue)
                        else:
                            stall_writes += len(queue)
                        break
                    dyn = queue.popleft()
                    issued += 1
                    nid = dyn[0]
                    size = mem_size[nid]
                    if is_read:
                        m_reads += 1
                    else:
                        m_writes += 1
                    m_bytes += size
                    if ideal:
                        data = image.read(dyn[7], size) if is_read else None
                        if not is_read:
                            image.write(dyn[7], dyn[8])
                        done = cycle + ideal_lat
                        bucket = buckets_get(done)
                        entry = (_EV_IDEAL, dyn, data, cycle)
                        if bucket is None:
                            buckets[done] = [entry]
                        else:
                            bucket.append(entry)
                        continue
                    # SPM timing: first cycle with a free bank port.
                    spm_prune += 1
                    if spm_prune % 4096 == 0:
                        for stale in [k for k in spm_usage if k[0] < cycle]:
                            del spm_usage[stale]
                    bank = spm_bank_of(dyn[7])
                    slot = 0 if is_read else 1
                    slimit = spm_read_ports if is_read else spm_write_ports
                    at = cycle
                    delayed = False
                    while True:
                        usage = spm_usage.setdefault((at, bank), [0, 0])
                        if usage[slot] < slimit:
                            usage[slot] += 1
                            break
                        at += 1
                        delayed = True
                    if delayed:
                        spm_conflicts += 1
                    done = at + spm_lat
                    bucket = buckets_get(done)
                    entry = (_EV_SPM, dyn, None, cycle)
                    if bucket is None:
                        buckets[done] = [entry]
                    else:
                        bucket.append(entry)

        def port_done(dyn: list):
            # memctrl completion callback: capture data, cycle and the
            # firing event's key now, commit in the next cycle's drain.
            return lambda request: arrived.append(
                (eventq.firing_key,
                 (_EV_PORT, dyn, request.result,
                  request.complete_tick // period)))

        # -- the flat cycle loop ----------------------------------------
        # Simulated time stays at ``cycle * period`` throughout a cycle:
        # the loop either advances the clock itself (nothing is due
        # first) or suspends until the tick event fires there.  The run's
        # watchdog is checked every ``interval`` cycles from here, since
        # a run-ahead stretch is one event to the queue.
        try_advance = eventq.try_advance
        next_check = self._next_check
        publish = self._publish
        cycle = first_cycle - 1
        watchdog = eventq.watchdog
        check_at = next_check(watchdog, cycle)
        while True:
            cycle += 1
            # 1. completions due by this cycle fire before the tick
            #    (DEFAULT_PRI < CPU_TICK_PRI), in scheduling order.
            if inline:
                bucket = buckets.pop(cycle, None)
            else:
                # In the order the event queue would fire the commit
                # batches among the arrivals: a batch goes just before
                # the first arrival whose key follows its own, the rest
                # (due by now) after the last.
                bucket = []
                for key, entry in arrived:
                    while commits and commits[0] < key:
                        bucket += heappop(commits)[3]
                    bucket.append(entry)
                arrived.clear()
                now = cycle * period
                while commits and commits[0][0] <= now:
                    bucket += heappop(commits)[3]
            if bucket:
                for tag, dyn, payload, pump_cycle in bucket:
                    nid = dyn[0]
                    if tag == _EV_COMMIT:
                        inflight_compute -= 1
                        ci = cls_ids[nid]
                        if gate_of[nid] >= 0 and not pipelined[nid]:
                            pool_inflight[ci] -= 1
                        inflight_arr[ci] -= 1
                        commit(dyn, payload, cycle)
                    elif tag == _EV_SPM:
                        if kind[nid] == K_LOAD:
                            spm_reads += 1
                            result = decoders[nid](
                                image.read(dyn[7], mem_size[nid]))
                            if trace_mem:
                                emit_mem_trace(dyn, pump_cycle, cycle, True)
                            outstanding_reads -= 1
                            mem_window.remove(dyn)
                            commit(dyn, result, cycle)
                        else:
                            spm_writes += 1
                            image.write(dyn[7], dyn[8])
                            if trace_mem:
                                emit_mem_trace(dyn, pump_cycle, cycle, True)
                            outstanding_writes -= 1
                            mem_window.remove(dyn)
                            store_window.remove(dyn)
                            commit(dyn, None, cycle)
                    else:  # _EV_IDEAL, or _EV_PORT (commit cycle in slot 3)
                        if tag == _EV_IDEAL:
                            if trace_mem:
                                emit_mem_trace(dyn, pump_cycle, cycle, False)
                            pump_cycle = cycle
                        if kind[nid] == K_LOAD:
                            outstanding_reads -= 1
                            mem_window.remove(dyn)
                            commit(dyn, decoders[nid](payload), pump_cycle)
                        else:
                            outstanding_writes -= 1
                            mem_window.remove(dyn)
                            store_window.remove(dyn)
                            commit(dyn, None, pump_cycle)

            # 2. the tick, phase for phase as RuntimeEngine._tick.
            n_cycles += 1

            # Fetch into the reservation window (the DynInst-creation
            # body is inlined here — it runs once per dynamic
            # instruction and dominates the fetch phase).
            while fetch_queue and window < resw:
                bid, pred = fetch_queue[0]
                nids = blocks[bid]
                n_nids = len(nids)
                if fetch_cursor == 0:
                    n_blocks += 1
                while fetch_cursor < n_nids and window < resw:
                    nid = nids[fetch_cursor]
                    fetch_cursor += 1
                    deps = dep_binds[nid]
                    if deps is None:  # phi: one incoming per predecessor
                        if pred < 0:
                            raise EngineError(
                                f"{engine_name}: phi in entry block")
                        template, deps = phi_binds[nid][pred]
                    else:
                        template = init_vals[nid]
                    dyn = [nid, seq, WAITING, 0, [], None, None, None,
                           None, -1]
                    seq += 1
                    n_dyn_insts += 1
                    pending = 0
                    if deps:
                        vals = template.copy()
                        for index, pnid, is_addr in deps:
                            producer = last_inst[pnid]
                            if producer is None:
                                vals[index] = 0
                            elif producer[2] == COMMITTED:
                                vals[index] = producer[6]
                            else:
                                pending += 1
                                producer[4].append((dyn, index, is_addr))
                    else:
                        vals = template  # no producer-fed slots: shared
                    dyn[5] = vals
                    if is_mem[nid]:
                        value = vals[addr_index[nid]]
                        if value is not None:
                            dyn[7] = value
                        mem_window.append(dyn)
                        if kind[nid] == K_STORE:
                            store_window.append(dyn)
                    if produces_value[nid]:
                        previous = last_inst[nid]
                        if previous is not None and previous[2] != COMMITTED:
                            pending += 1
                            previous[4].append(dyn)
                        last_inst[nid] = dyn
                    window += 1
                    dyn[3] = pending
                    if pending == 0:
                        dyn[2] = READY
                        heappush(ready, (dyn[1], dyn))
                if fetch_cursor >= n_nids:
                    fetch_queue.pop(0)
                    fetch_cursor = 0
                else:
                    break

            issued_kinds = 0
            issued_total = 0
            # Refused ops this cycle per kind, in first-refusal order.
            blocked: dict[str, int] = {}
            # Ops a busy dedicated unit refused: retried next cycle.
            held: list = []
            # Reopen the gates: each one's first parked op goes on the
            # heap, and `advance` queues the next as each goes through.
            if waiting_gates:
                for gate in waiting_gates:
                    line = parked[gate]
                    parked[gate] = []
                    line.sort()
                    queued[gate] = iter(line)
                    advance(gate)
                waiting_gates.clear()
            while ready:
                dyn = heappop(ready)[1]
                nid = dyn[0]
                nkind = kind[nid]
                if nkind == K_LOAD:
                    if dyn[7] is None:
                        dyn[7] = dyn[5][0]
                    if outstanding_reads >= read_q_size:
                        park(dyn, GATE_READ, "load", blocked)
                        continue
                    if heads[GATE_READ] is dyn:
                        advance(GATE_READ)
                    if conflicts(dyn):
                        park(dyn, GATE_READ, "load", blocked)
                        continue
                    dyn[2] = ISSUED
                    dyn[9] = cycle
                    window -= 1
                    outstanding_reads += 1
                    n_loads += 1
                    issued_kinds |= load_bit
                    if inline:
                        read_queue.append(dyn)
                    else:
                        enqueue_read(dyn[7], mem_size[nid], port_done(dyn))
                elif nkind == K_STORE:
                    if dyn[7] is None:
                        dyn[7] = dyn[5][1]
                    if outstanding_writes >= write_q_size:
                        park(dyn, GATE_WRITE, "store", blocked)
                        continue
                    if heads[GATE_WRITE] is dyn:
                        advance(GATE_WRITE)
                    if conflicts(dyn):
                        park(dyn, GATE_WRITE, "store", blocked)
                        continue
                    dyn[2] = ISSUED
                    dyn[9] = cycle
                    window -= 1
                    outstanding_writes += 1
                    n_stores += 1
                    issued_kinds |= store_bit
                    dyn[8] = encoders[nid](dyn[5][0])
                    if inline:
                        write_queue.append(dyn)
                    else:
                        enqueue_write(dyn[7], dyn[8], port_done(dyn))
                else:
                    is_compute = nkind == K_COMPUTE
                    if is_compute:
                        ci = cls_ids[nid]
                        gate = gate_of[nid]
                        if gate < 0:
                            # A dedicated unit: one op per cycle if
                            # pipelined, else busy for its latency.
                            if pipelined[nid]:
                                free = ded_last_issue[nid] < cycle
                                if free:
                                    ded_last_issue[nid] = cycle
                            else:
                                free = ded_busy_until[nid] < cycle
                                if free:
                                    lat = latency[nid]
                                    ded_busy_until[nid] = (
                                        cycle + (lat if lat > 1 else 1) - 1)
                            if not free:
                                fu_stall(ci, 1)
                                held.append(dyn)
                                blocked["compute"] = blocked.get("compute", 0) + 1
                                continue
                        elif pipelined[nid]:
                            if pool_stamp[ci] != cycle:
                                pool_stamp[ci] = cycle
                                pool_count[ci] = 0
                            if pool_count[ci] >= units_arr[ci]:
                                fu_stall(ci, park(dyn, gate, "compute", blocked))
                                continue
                            pool_count[ci] += 1
                            if heads[gate] is dyn:
                                advance(gate)
                        else:
                            if pool_inflight[ci] >= units_arr[ci]:
                                fu_stall(ci, park(dyn, gate, "compute", blocked))
                                continue
                            pool_inflight[ci] += 1
                            if heads[gate] is dyn:
                                advance(gate)
                        if fu_issued_arr[ci] == 0:
                            issue_order.append(ci)
                        inflight_arr[ci] += 1
                        fu_issued_arr[ci] += 1
                    dyn[2] = ISSUED
                    dyn[9] = cycle
                    window -= 1
                    if is_compute:
                        fu_energy += dyn_energy[nid]
                        issued_kinds |= kind_bit[issue_kind[nid]]
                        reg_energy += read_energy[nid]
                        inflight_compute += 1
                    thunk = evals[nid]
                    result = thunk(dyn[5]) if thunk is not None else None
                    lat = latency[nid] if is_compute else 0
                    if nkind == K_BRANCH:
                        if br_cond[nid]:
                            target = br_true[nid] if dyn[5][0] else br_false[nid]
                        else:
                            target = br_true[nid]
                        fetch_queue.append((target, block_of[nid]))
                    elif nkind == K_RET:
                        ret_seen = True
                    if lat == 0:
                        if is_compute:
                            inflight_compute -= 1
                            if gate >= 0 and not pipelined[nid]:
                                pool_inflight[ci] -= 1
                            inflight_arr[ci] -= 1
                        commit(dyn, result, cycle)
                    else:
                        done = cycle + lat
                        bucket = buckets_get(done)
                        entry = (_EV_COMMIT, dyn, result, cycle)
                        if bucket is None:
                            buckets[done] = [entry]
                        else:
                            bucket.append(entry)
                issued_total += 1
                # Zero-latency commits pushed their wakes straight onto
                # `ready`, so they chain combinationally this cycle.
            for dyn in held:
                heappush(ready, (dyn[1], dyn))

            if inline:
                if read_queue or write_queue:
                    pump_memory(cycle)
            else:
                # Keyed before the pump, as the dynamic engine schedules
                # its commits at issue: same-tick order against memory
                # events is then scheduling order.
                for done, batch in buckets.items():
                    heappush(commits, (done * period, Event.DEFAULT_PRI,
                                       reserve_seq(), batch))
                buckets.clear()
                memctrl.pump()

            obit = ((1 if outstanding_reads else 0)
                    | (2 if outstanding_writes else 0)
                    | (4 if inflight_compute else 0))
            occ_issued_total += issued_total
            for key, n in blocked.items():
                occ_blocked_ops += n
                occ_blocked_by_kind[key] = occ_blocked_by_kind.get(key, 0) + n
            # Busy units per class, in first-successful-acquire order —
            # the dynamic allocator's inflight_by_class insertion order.
            if inflight_compute:
                for ci in issue_order:
                    inflight = inflight_arr[ci]
                    if inflight > 0:
                        units = units_arr[ci]
                        name = class_names[ci]
                        occ_fu_busy[name] = occ_fu_busy.get(name, 0) + (
                            units if units and units < inflight else inflight)
            if issued_kinds:
                occ_issue_cycles += 1
                for name in kind_table[issued_kinds]:
                    occ_issue_kind_cycles[name] = (
                        occ_issue_kind_cycles.get(name, 0) + 1)
            elif obit:
                occ_stall_cycles += 1
                fs = outstanding_table[obit]
                occ_stall_sources[fs] = occ_stall_sources.get(fs, 0) + 1
            else:
                occ_idle_cycles += 1
            if trace_sched:
                hub.emit(
                    "sched", engine_name, "cycle", cycle * period,
                    dur=period,
                    args={"issued": issued_total, "blocked": blocked,
                          "outstanding": sorted(outstanding_table[obit])},
                )

            if (ret_seen and not ready and not waiting_gates
                    and not fetch_queue and window == 0
                    and inflight_compute == 0 and outstanding_reads == 0
                    and outstanding_writes == 0):
                break
            if cycle >= check_at:
                check_at = next_check(watchdog, cycle)
                publish(committed_base + n_committed, window,
                        outstanding_reads, outstanding_writes,
                        inflight_compute)
                watchdog.check(eventq)
            when = (cycle + 1) * period
            if not try_advance(when):
                publish(committed_base + n_committed, window,
                        outstanding_reads, outstanding_writes,
                        inflight_compute)
                eventq.schedule(tick_event, when)
                yield
                if eventq.watchdog is not watchdog:
                    watchdog = eventq.watchdog
                    check_at = next_check(watchdog, cycle)

        # -- write-back: same stat objects, same final values -----------
        engine.stat_cycles.inc(n_cycles)
        engine.stat_dyn_insts.inc(n_dyn_insts)
        engine.stat_blocks.inc(n_blocks)
        engine.stat_loads.inc(n_loads)
        engine.stat_stores.inc(n_stores)
        for ci in issue_order:
            engine.stat_fu_issued.inc(class_names[ci], fu_issued_arr[ci])
        for ci in stall_order:
            engine.stat_fu_stalls.inc(class_names[ci], fu_stalled_arr[ci])
        occupancy.cycles += n_cycles
        occupancy.issued_op_total += occ_issued_total
        occupancy.blocked_op_cycles += occ_blocked_ops
        merge = occupancy.blocked_by_kind
        for name, value in occ_blocked_by_kind.items():
            merge[name] = merge.get(name, 0) + value
        merge = occupancy.fu_busy_cycles
        for name, value in occ_fu_busy.items():
            merge[name] = merge.get(name, 0) + value
        occupancy.issue_cycles += occ_issue_cycles
        # Every compute issue is counted once per class, in first-issue
        # order: the tracker's issued_by_class and issued_ops.
        occupancy.issued_ops += sum(fu_issued_arr)
        merge = occupancy.issued_by_class
        for ci in issue_order:
            name = class_names[ci]
            merge[name] = merge.get(name, 0) + fu_issued_arr[ci]
        merge = occupancy.issue_kind_cycles
        for name, value in occ_issue_kind_cycles.items():
            merge[name] = merge.get(name, 0) + value
        occupancy.stall_cycles += occ_stall_cycles
        merge = occupancy.stall_sources
        for fs, value in occ_stall_sources.items():
            merge[fs] = merge.get(fs, 0) + value
        occupancy.idle_cycles += occ_idle_cycles
        engine.committed = committed_base + n_committed
        engine.fu_energy_pj = fu_energy
        engine.register_energy_pj = reg_energy
        engine.end_cycle = cycle
        engine.running = False
        engine.driver = None
        if inline:
            memctrl.stat_reads.inc(m_reads)
            memctrl.stat_writes.inc(m_writes)
            memctrl.stat_bytes.inc(m_bytes)
            memctrl.stat_read_stalls.inc(stall_reads)
            memctrl.stat_write_stalls.inc(stall_writes)
            if not ideal:
                spm.stat_reads.inc(spm_reads)
                spm.stat_writes.inc(spm_writes)
                spm.stat_conflicts.inc(spm_conflicts)
        if on_done is not None:
            on_done()
