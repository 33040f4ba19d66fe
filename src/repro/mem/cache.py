"""Set-associative cache (timing overlay).

The cache tracks tags, LRU state, dirty bits, and MSHRs but stores no
data: functional data always lives in the downstream backing store
(DRAM).  Reads are satisfied functionally from downstream at response
time; writes are forwarded functionally right away while timing follows
the writeback protocol (dirty line, delayed eviction traffic).  This is
the standard trick for decoupling functional correctness from timing
configuration, and it is what lets cache-size sweeps leave results
bit-identical (the decoupling claim of Sec. III-D).

Misses to the same line merge into one MSHR; the line fill occupies the
downstream port once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.sim.clock import ClockDomain
from repro.sim.packet import MemCmd, Packet, read_packet, write_packet
from repro.sim.ports import MasterPort, SlavePort
from repro.sim.simobject import SimObject, System


@dataclass
class _Line:
    tag: int
    valid: bool = False
    dirty: bool = False
    lru: int = 0


@dataclass
class _MSHR:
    line_addr: int
    waiting: list[Packet] = field(default_factory=list)


class Cache(SimObject):
    def __init__(
        self,
        name: str,
        system: System,
        size: int = 4096,
        line_size: int = 64,
        assoc: int = 4,
        hit_latency_cycles: int = 2,
        mshrs: int = 8,
        clock: Optional[ClockDomain] = None,
    ) -> None:
        super().__init__(name, system, clock)
        if size % (line_size * assoc) != 0:
            raise ValueError(
                f"cache size {size} not divisible by line_size*assoc "
                f"({line_size}*{assoc})"
            )
        self.size = size
        self.line_size = line_size
        self.assoc = assoc
        self.hit_latency_cycles = hit_latency_cycles
        self.num_sets = size // (line_size * assoc)
        self.max_mshrs = mshrs
        self._sets: list[list[_Line]] = [
            [_Line(tag=-1) for __ in range(assoc)] for __ in range(self.num_sets)
        ]
        self._mshrs: dict[int, _MSHR] = {}
        self._lru_clock = 0

        self.cpu_side = SlavePort(
            f"{name}.cpu_side",
            recv_timing_req=self._recv_timing_req,
            recv_functional=self._recv_functional,
            owner=self,
        )
        self.mem_side = MasterPort(
            f"{name}.mem_side",
            recv_timing_resp=self._recv_fill_resp,
            owner=self,
        )
        self.stat_hits = self.stats.scalar("hits")
        self.stat_misses = self.stats.scalar("misses")
        self.stat_writebacks = self.stats.scalar("writebacks")
        self.stat_mshr_merges = self.stats.scalar("mshr_merges")
        self.stats.formula(
            "miss_rate",
            lambda: self.stat_misses.value()
            / max(1.0, self.stat_hits.value() + self.stat_misses.value()),
        )

    # ------------------------------------------------------------------
    def _line_addr(self, addr: int) -> int:
        return addr - (addr % self.line_size)

    def _lookup(self, addr: int) -> tuple[int, Optional[_Line]]:
        line_addr = self._line_addr(addr)
        set_index = (line_addr // self.line_size) % self.num_sets
        tag = line_addr // (self.line_size * self.num_sets)
        for line in self._sets[set_index]:
            if line.valid and line.tag == tag:
                return set_index, line
        return set_index, None

    def _touch(self, line: _Line) -> None:
        self._lru_clock += 1
        line.lru = self._lru_clock

    # -- functional -------------------------------------------------------
    def _recv_functional(self, pkt: Packet) -> Packet:
        return self.mem_side.send_functional(pkt)

    # -- request path --------------------------------------------------------
    def _recv_timing_req(self, pkt: Packet) -> bool:
        pkt.req_tick = self.cur_tick
        if self._probe is not None:
            # Attributed once at the cache boundary; fill/writeback
            # traffic below carries no agent.
            self._probe.access(self, pkt.agent, pkt.addr, pkt.size,
                               pkt.is_write, self.cur_tick)
        if pkt.size > self.line_size:
            raise ValueError(
                f"{self.name}: access of {pkt.size}B exceeds line size; split upstream"
            )
        set_index, line = self._lookup(pkt.addr)
        if line is not None:
            self.stat_hits.inc()
            if self._probe is not None:
                self.trace_emit("mem", "hit", args={"addr": pkt.addr, "size": pkt.size})
            self._touch(line)
            if pkt.is_write:
                line.dirty = True
                # Functional write-through to the backing store.
                self.mem_side.send_functional(
                    write_packet(pkt.addr, pkt.data, origin=pkt.origin)
                )
            self.eventq.schedule_callback(
                lambda p=pkt: self._respond(p),
                self.clock_edge(self.hit_latency_cycles),
                name=f"{self.name}.hit",
            )
            return True

        # Miss.
        line_addr = self._line_addr(pkt.addr)
        if pkt.is_write:
            self.mem_side.send_functional(
                write_packet(pkt.addr, pkt.data, origin=pkt.origin)
            )
        if line_addr in self._mshrs:
            self.stat_mshr_merges.inc()
            self._mshrs[line_addr].waiting.append(pkt)
            return True
        self.stat_misses.inc()
        if self._probe is not None:
            self.trace_emit("mem", "miss", args={"addr": pkt.addr, "size": pkt.size})
        if len(self._mshrs) >= self.max_mshrs:
            return False  # backpressure: requester must retry
        mshr = _MSHR(line_addr)
        mshr.waiting.append(pkt)
        self._mshrs[line_addr] = mshr
        fill = read_packet(line_addr, self.line_size, origin=("fill", self.name))
        self.eventq.schedule_callback(
            lambda f=fill: self._issue_fill(f),
            self.clock_edge(self.hit_latency_cycles),
            name=f"{self.name}.fill",
        )
        return True

    def _issue_fill(self, fill: Packet) -> None:
        if not self.mem_side.send_timing_req(fill):
            # Downstream is busy; retry next cycle.
            self.eventq.schedule_callback(
                lambda f=fill: self._issue_fill(f),
                self.clock_edge(1),
                name=f"{self.name}.fill_retry",
            )

    # -- response path -----------------------------------------------------------
    def _recv_fill_resp(self, pkt: Packet) -> None:
        line_addr = pkt.addr
        mshr = self._mshrs.pop(line_addr, None)
        if mshr is None:
            return  # e.g. writeback ack
        line = self._install(line_addr)
        if any(waiting.is_write for waiting in mshr.waiting):
            line.dirty = True
        for waiting in mshr.waiting:
            self._respond(waiting)

    def _install(self, line_addr: int) -> _Line:
        set_index = (line_addr // self.line_size) % self.num_sets
        tag = line_addr // (self.line_size * self.num_sets)
        victim = min(self._sets[set_index], key=lambda l: (l.valid, l.lru))
        if victim.valid and victim.dirty:
            self.stat_writebacks.inc()
            if self._probe is not None:
                self.trace_emit("mem", "writeback", args={"line": line_addr})
            victim_addr = (
                victim.tag * self.num_sets + set_index
            ) * self.line_size
            # Data already written through functionally; model the
            # writeback traffic only.
            wb_data = self.mem_side.send_functional(
                read_packet(victim_addr, self.line_size)
            ).data
            wb = write_packet(victim_addr, wb_data, origin=("writeback", self.name))
            self.mem_side.send_timing_req(wb)
        victim.tag = tag
        victim.valid = True
        victim.dirty = False
        self._touch(victim)
        return victim

    def _respond(self, pkt: Packet) -> None:
        if pkt.cmd is MemCmd.READ:
            data = self.mem_side.send_functional(
                read_packet(pkt.addr, pkt.size)
            ).data
            resp = pkt.make_response(data=data)
        else:
            resp = pkt.make_response()
        resp.resp_tick = self.cur_tick
        self.cpu_side.send_timing_resp(resp)
