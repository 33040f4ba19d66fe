"""Scratchpad memory (SPM).

A banked, multi-ported SRAM with a backing byte store.  Per cycle each
bank services up to ``read_ports`` reads and ``write_ports`` writes;
excess accesses stall into the next cycle (bank conflicts).  Addresses
map to banks cyclically by word ("cyclic partitioning", the common HLS
array-partitioning scheme) or in contiguous blocks.

The SPM prices itself with the CACTI stand-in and counts accesses, so
the power model can report SPM read/write energy and leakage (Fig. 4).
"""

from __future__ import annotations

from typing import Optional

from repro.hw.cacti import SRAMConfig, SRAMMetrics, cacti_model
from repro.ir.memory import MemoryImage
from repro.sim.clock import ClockDomain
from repro.sim.packet import MemCmd, Packet
from repro.sim.ports import SlavePort
from repro.sim.simobject import AddrRange, SimObject, System


class Scratchpad(SimObject):
    def __init__(
        self,
        name: str,
        system: System,
        base: int,
        size: int,
        latency_cycles: int = 1,
        read_ports: int = 2,
        write_ports: int = 1,
        banks: int = 1,
        word_bytes: int = 8,
        partitioning: str = "cyclic",
        clock: Optional[ClockDomain] = None,
    ) -> None:
        super().__init__(name, system, clock)
        if partitioning not in ("cyclic", "block"):
            raise ValueError(f"unknown partitioning '{partitioning}'")
        self.range = AddrRange(base, size)
        self.image = MemoryImage(size, base=base, name=f"{name}.image")
        self.latency_cycles = latency_cycles
        self.read_ports = read_ports
        self.write_ports = write_ports
        self.banks = banks
        self.word_bytes = word_bytes
        self.partitioning = partitioning
        self.sram = cacti_model(
            SRAMConfig(
                size_bytes=size,
                word_bytes=word_bytes,
                read_ports=read_ports,
                write_ports=write_ports,
                banks=banks,
            )
        )
        # Multiple requesters (e.g. accelerator port + DMA port) may
        # attach; each gets its own slave port.
        self.ports: list[SlavePort] = []
        # Per-(cycle, bank) usage accounting: {(cycle, bank): [reads, writes]}
        self._usage: dict[tuple[int, int], list[int]] = {}
        self._prune_counter = 0
        self.stat_reads = self.stats.scalar("reads", "read accesses")
        self.stat_writes = self.stats.scalar("writes", "write accesses")
        self.stat_conflicts = self.stats.scalar("bank_conflicts", "accesses delayed by port limits")

    # ------------------------------------------------------------------
    def make_port(self, label: str = "") -> SlavePort:
        port = SlavePort(
            f"{self.name}.port{label or len(self.ports)}",
            recv_timing_req=lambda pkt: self._recv_timing_req(pkt, port),
            recv_functional=self._recv_functional,
            owner=self,
        )
        self.ports.append(port)
        return port

    @property
    def metrics(self) -> SRAMMetrics:
        return self.sram

    def bank_of(self, addr: int) -> int:
        word = (addr - self.range.start) // self.word_bytes
        if self.partitioning == "cyclic":
            return word % self.banks
        words_per_bank = max(1, (self.range.size // self.word_bytes) // self.banks)
        return min(self.banks - 1, word // words_per_bank)

    # -- functional ---------------------------------------------------------
    def _recv_functional(self, pkt: Packet) -> Packet:
        if pkt.cmd is MemCmd.READ:
            return pkt.make_response(data=self.image.read(pkt.addr, pkt.size))
        self.image.write(pkt.addr, pkt.data)
        return pkt.make_response()

    # -- timing --------------------------------------------------------------
    def _recv_timing_req(self, pkt: Packet, source_port: SlavePort) -> bool:
        pkt.req_tick = self.cur_tick
        if self._probe is not None:
            self._probe.access(self, pkt.agent, pkt.addr, pkt.size,
                               pkt.is_write, self.cur_tick)
        self._prune_counter += 1
        if self._prune_counter % 4096 == 0:
            now = self.cur_cycle
            self._usage = {k: v for k, v in self._usage.items() if k[0] >= now}
        bank = self.bank_of(pkt.addr)
        slot = 0 if pkt.cmd is MemCmd.READ else 1
        limit = self.read_ports if slot == 0 else self.write_ports
        cycle = self.cur_cycle
        # Find the first cycle with a free port on this bank.
        delayed = False
        while True:
            usage = self._usage.setdefault((cycle, bank), [0, 0])
            if usage[slot] < limit:
                usage[slot] += 1
                break
            cycle += 1
            delayed = True
        if delayed:
            self.stat_conflicts.inc()
        done_tick = max(
            self.clock.cycles_to_ticks(cycle + self.latency_cycles),
            self.clock_edge(self.latency_cycles),
        )
        self.eventq.schedule_callback(
            lambda p=pkt, port=source_port: self._complete(p, port),
            done_tick,
            name=f"{self.name}.resp",
        )
        return True

    def _complete(self, pkt: Packet, port: SlavePort) -> None:
        is_read = pkt.cmd is MemCmd.READ
        if is_read:
            self.stat_reads.inc()
            resp = pkt.make_response(data=self.image.read(pkt.addr, pkt.size))
        else:
            self.stat_writes.inc()
            self.image.write(pkt.addr, pkt.data)
            resp = pkt.make_response()
        resp.resp_tick = self.cur_tick
        probe = self._probe
        if probe is not None and probe.enabled("mem"):
            probe.emit(
                "mem", self.name, "read" if is_read else "write",
                pkt.req_tick, dur=self.cur_tick - pkt.req_tick,
                args={"addr": pkt.addr, "size": pkt.size,
                      "bank": self.bank_of(pkt.addr)},
            )
        port.send_timing_resp(resp)

    # -- energy accounting -----------------------------------------------------
    def read_energy_pj(self) -> float:
        return self.stat_reads.value() * self.sram.read_energy_pj

    def write_energy_pj(self) -> float:
        return self.stat_writes.value() * self.sram.write_energy_pj

    def leakage_mw(self) -> float:
        return self.sram.leakage_mw

    def area_um2(self) -> float:
        return self.sram.area_um2
