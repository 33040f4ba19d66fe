"""DRAM model.

A single-channel DRAM with a fixed access latency plus a bandwidth
constraint: requests are serviced in order, each occupying the data bus
for ``size / bytes_per_cycle`` cycles.  A light-weight open-row model
discounts the latency of accesses that hit the most recently opened
row, which is enough to make sequential DMA bursts measurably faster
than scattered accesses (the behaviour Table III's bulk-transfer times
depend on).
"""

from __future__ import annotations

from typing import Optional

from repro.ir.memory import MemoryImage
from repro.sim.clock import ClockDomain
from repro.sim.packet import MemCmd, Packet
from repro.sim.ports import SlavePort
from repro.sim.simobject import AddrRange, SimObject, System


class DRAM(SimObject):
    def __init__(
        self,
        name: str,
        system: System,
        base: int,
        size: int,
        latency_cycles: int = 60,
        row_hit_latency_cycles: int = 18,
        bytes_per_cycle: int = 8,
        row_size: int = 1024,
        clock: Optional[ClockDomain] = None,
    ) -> None:
        super().__init__(name, system, clock)
        self.range = AddrRange(base, size)
        self.image = MemoryImage(size, base=base, name=f"{name}.image")
        self.latency_cycles = latency_cycles
        self.row_hit_latency_cycles = row_hit_latency_cycles
        self.bytes_per_cycle = bytes_per_cycle
        self.row_size = row_size
        self.port = SlavePort(
            f"{name}.port",
            recv_timing_req=self._recv_timing_req,
            recv_functional=self._recv_functional,
            owner=self,
        )
        self._bus_free_tick = 0
        self._open_row: Optional[int] = None
        self.stat_reads = self.stats.scalar("reads", "read requests served")
        self.stat_writes = self.stats.scalar("writes", "write requests served")
        self.stat_bytes = self.stats.scalar("bytes", "bytes transferred")
        self.stat_row_hits = self.stats.scalar("row_hits", "open-row hits")

    # -- functional ---------------------------------------------------------
    def _recv_functional(self, pkt: Packet) -> Packet:
        if pkt.cmd is MemCmd.READ:
            return pkt.make_response(data=self.image.read(pkt.addr, pkt.size))
        self.image.write(pkt.addr, pkt.data)
        return pkt.make_response()

    # -- timing --------------------------------------------------------------
    def _recv_timing_req(self, pkt: Packet) -> bool:
        pkt.req_tick = self.cur_tick
        if self._probe is not None:
            self._probe.access(self, pkt.agent, pkt.addr, pkt.size,
                               pkt.is_write, self.cur_tick)
        row = pkt.addr // self.row_size
        if row == self._open_row:
            latency = self.row_hit_latency_cycles
            self.stat_row_hits.inc()
        else:
            latency = self.latency_cycles
            self._open_row = row
        transfer_cycles = max(1, -(-pkt.size // self.bytes_per_cycle))
        start = max(self.clock_edge(latency), self._bus_free_tick)
        done = start + self.clock.cycles_to_ticks(transfer_cycles)
        self._bus_free_tick = done
        self.eventq.schedule_callback(
            lambda p=pkt: self._complete(p), done, name=f"{self.name}.resp"
        )
        return True

    def _complete(self, pkt: Packet) -> None:
        self.stat_bytes.inc(pkt.size)
        if pkt.cmd is MemCmd.READ:
            self.stat_reads.inc()
            resp = pkt.make_response(data=self.image.read(pkt.addr, pkt.size))
        else:
            self.stat_writes.inc()
            self.image.write(pkt.addr, pkt.data)
            resp = pkt.make_response()
        resp.resp_tick = self.cur_tick
        self.port.send_timing_resp(resp)
