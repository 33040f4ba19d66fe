"""Accelerator cluster (Sec. III-D2).

A pool of accelerators behind a local crossbar, with optional shared
scratchpad and a cluster DMA.  The local crossbar also exposes each
accelerator's MMRs, so accelerators can program and synchronize each
other directly (the capability Fig. 16 exploits); a global crossbar
port reaches DRAM and the host, optionally through a last-level cache.
"""

from __future__ import annotations

from typing import Optional

from repro.core.compute_unit import ComputeUnit
from repro.core.config import DeviceConfig
from repro.hw.profile import HardwareProfile
from repro.ir.module import Module
from repro.mem.cache import Cache
from repro.mem.dma import BlockDMA, StreamDMA
from repro.mem.spm import Scratchpad
from repro.mem.stream_buffer import StreamBuffer
from repro.mem.xbar import Crossbar
from repro.sim.clock import ClockDomain
from repro.sim.simobject import AddrRange, SimObject, System


class AcceleratorCluster(SimObject):
    def __init__(
        self,
        name: str,
        system: System,
        mmr_base: int = 0x1000_0000,
        spm_base: int = 0x2000_0000,
        shared_spm_bytes: int = 0,
        dma_burst_bytes: int = 64,
        clock: Optional[ClockDomain] = None,
        engine: str = "graph",
    ) -> None:
        super().__init__(name, system, clock)
        #: Engine selector for every accelerator added (`ComputeUnit`).
        self.engine = engine
        self.local_xbar = Crossbar(f"{name}.lxbar", system, clock=clock)
        self.accelerators: list[ComputeUnit] = []
        self._mmr_cursor = mmr_base
        self._spm_cursor = spm_base
        self.shared_spm: Optional[Scratchpad] = None
        if shared_spm_bytes:
            self.shared_spm = Scratchpad(
                f"{name}.shared_spm",
                system,
                base=self._alloc_spm_range(shared_spm_bytes),
                size=shared_spm_bytes,
                read_ports=4,
                write_ports=4,
                clock=clock,
            )
            self.local_xbar.attach_slave(
                self.shared_spm.make_port("lx"), self.shared_spm.range, label="sspm"
            )
        self.dma = BlockDMA(f"{name}.dma", system, burst_bytes=dma_burst_bytes, clock=clock)
        self.dma.port.bind(self.local_xbar.slave_port("dma"))
        self.stream_dmas: list[StreamDMA] = []
        self.stream_buffers: list[StreamBuffer] = []

    # -- address allocation ----------------------------------------------------
    def _alloc_mmr_range(self, size: int = 0x1000) -> int:
        base = self._mmr_cursor
        self._mmr_cursor += size
        return base

    def _alloc_spm_range(self, size: int) -> int:
        base = self._spm_cursor
        self._spm_cursor += (size + 0xFFF) & ~0xFFF
        return base

    # -- membership ---------------------------------------------------------------
    def add_accelerator(
        self,
        name: str,
        module: Module,
        func_name: str,
        profile: HardwareProfile,
        config: Optional[DeviceConfig] = None,
        private_spm_bytes: int = 0,
        private_cache: Optional[dict] = None,
        spm_read_ports: int = 2,
        spm_write_ports: int = 2,
    ) -> ComputeUnit:
        """Create an accelerator, wire its memory paths, expose its MMRs."""
        unit = ComputeUnit(
            name,
            self.system,
            module,
            func_name,
            profile,
            config=config,
            mmr_base=self._alloc_mmr_range(),
            clock=None,
            engine=self.engine,
            # The unit elaborates now and lowers at its first launch;
            # both spans reach whatever already observes the system.
            trace_hub=self.system.probe,
        )
        # MMRs are reachable from the cluster (and beyond) for control.
        self.local_xbar.attach_slave(unit.comm.mmr.pio, unit.comm.mmr.range, label=f"{name}.mmr")

        if private_spm_bytes:
            spm = Scratchpad(
                f"{name}.spm",
                self.system,
                base=self._alloc_spm_range(private_spm_bytes),
                size=private_spm_bytes,
                read_ports=spm_read_ports,
                write_ports=spm_write_ports,
                clock=unit.clock,
            )
            unit.attach_private_spm(spm)
            unit.comm.add_memory_route(spm.range, spm.make_port("acc"), label="spm")
            # The DMA and other cluster members reach the private SPM too.
            self.local_xbar.attach_slave(spm.make_port("lx"), spm.range, label=f"{name}.spm")

        if private_cache is not None:
            cache = Cache(
                f"{name}.l1",
                self.system,
                clock=unit.clock,
                **private_cache,
            )
            cache_window = private_cache.get("window") or AddrRange(0x8000_0000, 1 << 30)
            unit.comm.add_memory_route(
                self._cache_window(cache_window), cache.cpu_side, label="cache"
            )
            cache.mem_side.bind(self.local_xbar.slave_port(f"{name}.l1"))
            unit.cache = cache

        self.accelerators.append(unit)
        return unit

    @staticmethod
    def _cache_window(window) -> AddrRange:
        if isinstance(window, AddrRange):
            return window
        return AddrRange(window[0], window[1])

    def route_to_global(self, unit: ComputeUnit, addr_range: AddrRange) -> None:
        """Give ``unit`` a direct (uncached) path to ``addr_range`` via the
        local crossbar (e.g. shared SPM or DRAM)."""
        unit.comm.add_memory_route(
            addr_range, self.local_xbar.slave_port(f"{unit.name}.up"), label="up"
        )

    def connect_global(self, global_xbar: Crossbar, dram_range: AddrRange,
                       llc: Optional[Cache] = None) -> None:
        """Attach the cluster below ``global_xbar``.

        Upward: DRAM accesses leave through (optionally) the LLC.
        Downward: the cluster's MMRs and SPMs become visible globally.
        """
        if llc is not None:
            llc.mem_side.bind(global_xbar.slave_port(f"{self.name}.llc"))
            self.local_xbar.attach_slave(llc.cpu_side, dram_range, label="dram")
        else:
            self.local_xbar.attach_slave(
                global_xbar.slave_port(f"{self.name}.up"), dram_range, label="dram"
            )
        # Expose the full cluster-local address space (MMRs + SPMs).
        start = min(
            [a.comm.mmr.range.start for a in self.accelerators]
            + ([self.shared_spm.range.start] if self.shared_spm else [])
        )
        end = max(
            [a.comm.mmr.range.end for a in self.accelerators]
            + [self._spm_cursor]
            + ([self.shared_spm.range.end] if self.shared_spm else [])
        )
        global_xbar.attach_slave(
            self.local_xbar.slave_port("global_in"),
            AddrRange(start, end - start),
            label=f"{self.name}.local",
        )

    # -- streaming ------------------------------------------------------------------
    def add_stream_buffer(self, name: str, capacity_tokens: int = 16, token_bytes: int = 8) -> StreamBuffer:
        buffer = StreamBuffer(
            f"{self.name}.{name}", self.system, capacity_tokens, token_bytes, clock=self.clock
        )
        self.stream_buffers.append(buffer)
        return buffer

    def add_stream_dma(self, name: str, buffer: StreamBuffer, direction: str) -> StreamDMA:
        dma = StreamDMA(f"{self.name}.{name}", self.system, buffer, direction, clock=self.clock)
        dma.port.bind(self.local_xbar.slave_port(name))
        self.stream_dmas.append(dma)
        return dma

    # -- reporting --------------------------------------------------------------------
    def power_report(self):
        report = None
        for unit in self.accelerators:
            unit_report = unit.power_report()
            report = unit_report if report is None else report.merged(unit_report)
        return report
