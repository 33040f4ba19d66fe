"""Accelerator-side memory controller.

Sits between the LLVM runtime engine's memory queues and the system:
holds pending reads/writes, issues up to ``read_ports`` reads and
``write_ports`` writes per cycle (the paper's Fig. 14 sweep knob),
routes each request to the memory port covering its address (private
SPM, cache, or the cluster crossbar), and delivers completions back to
the requester.  An "ideal" mode services everything in one cycle with
no port limit — the datapath-only configuration of Fig. 13.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from repro.sim.clock import ClockDomain
from repro.sim.packet import Packet, read_packet, write_packet
from repro.sim.ports import MasterPort, PortError
from repro.sim.simobject import AddrRange, SimObject, System


class MemRequest:
    """One outstanding accelerator memory operation."""

    __slots__ = ("is_read", "addr", "size", "data", "on_complete", "result",
                 "issued", "issue_tick", "complete_tick")

    def __init__(
        self,
        is_read: bool,
        addr: int,
        size: int,
        data: Optional[bytes] = None,
        on_complete: Optional[Callable[["MemRequest"], None]] = None,
    ) -> None:
        self.is_read = is_read
        self.addr = addr
        self.size = size
        self.data = data
        self.on_complete = on_complete
        self.result: Optional[bytes] = None
        self.issued = False
        self.issue_tick = -1
        self.complete_tick = -1


class AcceleratorMemController(SimObject):
    def __init__(
        self,
        name: str,
        system: System,
        read_ports: int = 2,
        write_ports: int = 2,
        ideal: bool = False,
        ideal_latency_cycles: int = 1,
        clock: Optional[ClockDomain] = None,
        agent: Optional[str] = None,
    ) -> None:
        super().__init__(name, system, clock)
        self.read_ports = read_ports
        self.write_ports = write_ports
        self.ideal = ideal
        self.ideal_latency_cycles = ideal_latency_cycles
        # Agent identity stamped on outgoing packets for access
        # attribution (the owning compute unit's name, when the comm
        # interface built us).
        self.agent = agent or name
        self._routes: list[tuple[AddrRange, MasterPort]] = []
        # Device regions with strictly-ordered access semantics (stream
        # windows, MMRs of other devices): same-address loads must not
        # be reordered by the runtime scheduler.  Half-open ``(start,
        # end)`` spans, read by both engines' conflict scans.
        self.strict_spans: list[tuple[int, int]] = []
        self.read_queue: deque[MemRequest] = deque()
        self.write_queue: deque[MemRequest] = deque()
        self._inflight: dict[int, MemRequest] = {}
        self._issued_this_cycle = [0, 0]  # [reads, writes]
        self._cycle_stamp = -1
        self.stat_reads = self.stats.scalar("reads")
        self.stat_writes = self.stats.scalar("writes")
        self.stat_read_stalls = self.stats.scalar("read_port_stalls")
        self.stat_write_stalls = self.stats.scalar("write_port_stalls")
        self.stat_bytes = self.stats.scalar("bytes")

    # -- wiring -------------------------------------------------------------
    def add_route(self, addr_range: AddrRange, label: str = "") -> MasterPort:
        """Create a master port serving ``addr_range``; bind it to a slave."""
        port = MasterPort(
            f"{self.name}.m{label or len(self._routes)}",
            recv_timing_resp=self._recv_timing_resp,
            owner=self,
        )
        self._routes.append((addr_range, port))
        return port

    @property
    def routes(self) -> list[tuple[AddrRange, MasterPort]]:
        """``(range, master port)`` per route, in lookup order."""
        return self._routes

    def add_strict_range(self, addr_range: AddrRange) -> None:
        self.strict_spans.append((addr_range.start, addr_range.end))

    def is_strict(self, addr: int) -> bool:
        for start, end in self.strict_spans:
            if start <= addr < end:
                return True
        return False

    def _route(self, addr: int, size: int) -> MasterPort:
        for addr_range, port in self._routes:
            if addr_range.contains(addr, size):
                return port
        raise PortError(f"{self.name}: no memory route for {addr:#x} (+{size})")

    # -- queueing API (called by the runtime engine) -----------------------------
    def enqueue_read(
        self, addr: int, size: int, on_complete: Callable[[MemRequest], None]
    ) -> MemRequest:
        if self._probe is not None:
            # Queued, not yet on the memory system: no agent to attribute.
            self._probe.access(self, None, addr, size, False, self.cur_tick)
        request = MemRequest(True, addr, size, on_complete=on_complete)
        self.read_queue.append(request)
        return request

    def enqueue_write(
        self, addr: int, data: bytes, on_complete: Callable[[MemRequest], None]
    ) -> MemRequest:
        if self._probe is not None:
            self._probe.access(self, None, addr, len(data), True, self.cur_tick)
        request = MemRequest(False, addr, len(data), data=bytes(data), on_complete=on_complete)
        self.write_queue.append(request)
        return request

    @property
    def outstanding(self) -> int:
        return len(self.read_queue) + len(self.write_queue) + len(self._inflight)

    # -- issue logic -----------------------------------------------------------
    def pump(self) -> None:
        """Issue as many queued requests as this cycle's ports allow.

        Called by the compute unit every cycle (and after completions).
        """
        cycle = self.cur_cycle
        if cycle != self._cycle_stamp:
            self._cycle_stamp = cycle
            self._issued_this_cycle = [0, 0]
        if self._probe is not None and self._probe.stalled(self):
            # Injected port stall: nothing issues this cycle.  The
            # compute unit re-pumps every cycle, so a finite stall
            # resumes on its own; an unbounded one is a livelock for
            # the watchdog to diagnose.
            return
        # At most one retry per call: a retry per refused queue would
        # double the pending retries every cycle while both are refused.
        refused = self._issue(self.read_queue, 0, self.read_ports,
                              self.stat_read_stalls, False)
        self._issue(self.write_queue, 1, self.write_ports,
                    self.stat_write_stalls, refused)

    def _issue(self, queue: deque, slot: int, limit: int, stall_stat,
               retry_pending: bool) -> bool:
        """Issue from ``queue``; True when the memory refused a request
        (a retry pump is then scheduled unless ``retry_pending``)."""
        while queue:
            if not self.ideal and self._issued_this_cycle[slot] >= limit:
                stall_stat.inc(len(queue))
                return False
            request = queue.popleft()
            if self._probe is not None and self._probe.drop_request(self, request):
                # Injected lost transaction: the request vanishes and its
                # completion callback never fires.
                continue
            request.issued = True
            request.issue_tick = self.cur_tick
            self._issued_this_cycle[slot] += 1
            if request.is_read:
                self.stat_reads.inc()
            else:
                self.stat_writes.inc()
            self.stat_bytes.inc(request.size)
            if self.ideal:
                self._complete_ideal(request)
                continue
            if request.is_read:
                pkt = read_packet(request.addr, request.size,
                                  origin=request, agent=self.agent)
            else:
                pkt = write_packet(request.addr, request.data,
                                   origin=request, agent=self.agent)
            port = self._route(request.addr, request.size)
            if not port.send_timing_req(pkt):
                # Backpressure: try again next cycle.
                request.issued = False
                self._issued_this_cycle[slot] -= 1
                queue.appendleft(request)
                if not retry_pending:
                    self.schedule_callback_in_cycles(
                        self.pump, 1, name=f"{self.name}.pump")
                return True
            self._inflight[pkt.pkt_id] = request
        return False

    def _complete_ideal(self, request: MemRequest) -> None:
        # Ideal memory: functional access against whichever route matches,
        # completing after a fixed latency.  The functional path bypasses
        # every timing model, so attribute the access here (obj=None).
        if self._probe is not None:
            self._probe.access(None, self.agent, request.addr, request.size,
                               not request.is_read, self.cur_tick)
        port = self._route(request.addr, request.size)
        if request.is_read:
            pkt = read_packet(request.addr, request.size, origin=request)
            request.result = port.send_functional(pkt).data
        else:
            pkt = write_packet(request.addr, request.data, origin=request)
            port.send_functional(pkt)
        self.schedule_callback_in_cycles(
            lambda r=request: self._finish(r),
            self.ideal_latency_cycles,
            name=f"{self.name}.ideal",
        )

    def _recv_timing_resp(self, pkt: Packet) -> None:
        request = self._inflight.pop(pkt.pkt_id, None)
        if request is None:
            raise PortError(f"{self.name}: orphan response {pkt}")
        if request.is_read:
            request.result = pkt.data
        self._finish(request)

    def _finish(self, request: MemRequest) -> None:
        request.complete_tick = self.cur_tick
        probe = self._probe
        if probe is not None and probe.enabled("mem"):
            # One span per accelerator memory op, issue -> completion.
            probe.emit(
                "mem", self.name, "read" if request.is_read else "write",
                request.issue_tick,
                dur=request.complete_tick - request.issue_tick,
                args={"addr": request.addr, "size": request.size},
            )
        if request.on_complete is not None:
            request.on_complete(request)
