"""Memory-mapped register file.

The host programs accelerators and DMAs by writing these registers over
the system interconnect, exactly like any other memory-mapped device
(Sec. III-D3).  Layout convention (64-bit registers):

* offset 0x00 — control/status: bit0 START (write 1 to launch),
  bit1 DONE (set by device, cleared by writing 0), bit2 IRQ-enable.
* offset 0x08 + 8*i — argument register i.

Write hooks let the owning device react to control writes.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.packet import MemCmd, Packet
from repro.sim.ports import SlavePort
from repro.sim.simobject import AddrRange, SimObject, System

CTRL_OFFSET = 0x00
ARGS_OFFSET = 0x08
CTRL_START = 1 << 0
CTRL_DONE = 1 << 1
CTRL_IRQ_EN = 1 << 2


class MMRFile(SimObject):
    def __init__(
        self,
        name: str,
        system: System,
        base: int,
        num_args: int = 8,
        latency_cycles: int = 1,
        on_write: Optional[Callable[[int, int], None]] = None,
        clock=None,
    ) -> None:
        super().__init__(name, system, clock)
        self.num_args = num_args
        size = ARGS_OFFSET + 8 * num_args
        self.range = AddrRange(base, size)
        self.latency_cycles = latency_cycles
        self.on_write = on_write
        self._data = bytearray(size)
        self.pio = SlavePort(
            f"{name}.pio",
            recv_timing_req=self._recv_timing_req,
            recv_functional=self._recv_functional,
            owner=self,
        )
        self.stat_reads = self.stats.scalar("mmr_reads")
        self.stat_writes = self.stats.scalar("mmr_writes")

    # -- direct device-side access ------------------------------------------
    def read_u64(self, offset: int) -> int:
        return int.from_bytes(self._data[offset : offset + 8], "little")

    def write_u64(self, offset: int, value: int) -> None:
        self._data[offset : offset + 8] = (value & (1 << 64) - 1).to_bytes(8, "little")

    @property
    def control(self) -> int:
        return self.read_u64(CTRL_OFFSET)

    @control.setter
    def control(self, value: int) -> None:
        self.write_u64(CTRL_OFFSET, value)

    def arg(self, index: int) -> int:
        if not 0 <= index < self.num_args:
            raise IndexError(f"{self.name}: MMR arg index {index} out of range")
        return self.read_u64(ARGS_OFFSET + 8 * index)

    def set_arg(self, index: int, value: int) -> None:
        if not 0 <= index < self.num_args:
            raise IndexError(f"{self.name}: MMR arg index {index} out of range")
        self.write_u64(ARGS_OFFSET + 8 * index, value)

    def set_done(self) -> None:
        self.control = (self.control | CTRL_DONE) & ~CTRL_START

    # -- bus-side access --------------------------------------------------------
    def _offset(self, addr: int, size: int) -> int:
        if not self.range.contains(addr, size):
            raise ValueError(f"{self.name}: access {addr:#x} outside MMR range")
        return addr - self.range.start

    def _recv_functional(self, pkt: Packet) -> Packet:
        offset = self._offset(pkt.addr, pkt.size)
        if pkt.cmd is MemCmd.READ:
            return pkt.make_response(data=bytes(self._data[offset : offset + pkt.size]))
        self._apply_write(offset, pkt.data)
        return pkt.make_response()

    def _recv_timing_req(self, pkt: Packet) -> bool:
        probe = self._probe
        if probe is not None:
            # No agent: to the sanitizer a register access is sync, not data.
            probe.access(self, None, pkt.addr, pkt.size, pkt.is_write,
                         self.cur_tick)
        offset = self._offset(pkt.addr, pkt.size)
        if pkt.cmd is MemCmd.READ:
            self.stat_reads.inc()
            data = bytes(self._data[offset : offset + pkt.size])
            resp = pkt.make_response(data=data)
        else:
            self.stat_writes.inc()
            if probe is not None and pkt.agent is not None:
                # Control/argument writes are the release half of the
                # MMR-start handoff: everything the writer did so far
                # becomes visible to the device that launches off this
                # register file.
                probe.sync(pkt.agent, ("mmr", self.name), True)
            self._apply_write(offset, pkt.data)
            resp = pkt.make_response()
        self.eventq.schedule_callback(
            lambda r=resp: self.pio.send_timing_resp(r),
            self.clock_edge(self.latency_cycles),
            name=f"{self.name}.resp",
        )
        return True

    def _apply_write(self, offset: int, data: bytes) -> None:
        self._data[offset : offset + len(data)] = data
        if self.on_write is not None:
            value = int.from_bytes(data, "little")
            self.on_write(offset, value)
