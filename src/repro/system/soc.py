"""SoC builders and the standalone accelerator harness.

`StandaloneAccelerator` runs one kernel on one accelerator with a
chosen memory configuration (private SPM, cache+DRAM, or ideal
memory) — the harness behind the validation and DSE experiments
(Figs. 10-15, Tables II/IV).

`build_soc` assembles the full-system platform of Fig. 1: host agent,
interrupt controller, global crossbar, DRAM, and accelerator clusters —
used for the end-to-end experiments (Table III, Fig. 16).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Union

import numpy as np

from repro.build.artifact import Artifact
from repro.core.cluster import AcceleratorCluster
from repro.core.compute_unit import ComputeUnit
from repro.core.config import DeviceConfig
from repro.core.occupancy import OccupancyTracker
from repro.hw.default_profile import default_profile
from repro.hw.power import AreaReport, PowerReport
from repro.hw.profile import HardwareProfile
from repro.ir.module import Module
from repro.mem.cache import Cache
from repro.mem.dram import DRAM
from repro.mem.spm import Scratchpad
from repro.mem.xbar import Crossbar
from repro.sim.clock import ClockDomain
from repro.sim.simobject import AddrRange, System
from repro.system.host import HostAgent
from repro.system.interrupts import InterruptController


@dataclass
class RunResult:
    cycles: int
    runtime_ns: float
    power: PowerReport
    area: AreaReport
    occupancy: OccupancyTracker
    fu_counts: dict[str, int]
    stats: dict = field(default_factory=dict)
    #: `TraceHub.summary()` of the run's trace, when tracing was enabled.
    trace_summary: Optional[dict] = None
    #: `AccessSanitizer.summary()` when the run was sanitized.
    sanitizer: Optional[dict] = None

    def to_dict(self) -> dict:
        """Lossless JSON-safe representation (see `repro.exec.cache`)."""
        return {
            "cycles": self.cycles,
            "runtime_ns": self.runtime_ns,
            "power": self.power.to_dict(),
            "area": self.area.to_dict(),
            "occupancy": self.occupancy.to_dict(),
            "fu_counts": dict(self.fu_counts),
            "stats": {
                key: dict(value) if isinstance(value, dict) else value
                for key, value in self.stats.items()
            },
            "trace_summary": self.trace_summary,
            "sanitizer": self.sanitizer,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunResult":
        return cls(
            cycles=data["cycles"],
            runtime_ns=data["runtime_ns"],
            power=PowerReport.from_dict(data["power"]),
            area=AreaReport.from_dict(data["area"]),
            occupancy=OccupancyTracker.from_dict(data["occupancy"]),
            fu_counts=dict(data["fu_counts"]),
            stats=dict(data.get("stats", {})),
            trace_summary=data.get("trace_summary"),
            sanitizer=data.get("sanitizer"),
        )


class StandaloneAccelerator:
    """One accelerator + one memory configuration, run to completion."""

    SPM_BASE = 0x2000_0000
    DRAM_BASE = 0x8000_0000

    def __init__(
        self,
        source: Union[str, Module, Artifact],
        func_name: str,
        config: Optional[DeviceConfig] = None,
        profile: Optional[HardwareProfile] = None,
        memory: str = "spm",
        unroll_factor: int = 1,
        spm_bytes: int = 1 << 20,
        spm_read_ports: int = 2,
        spm_write_ports: int = 2,
        spm_banks: int = 1,
        cache_kwargs: Optional[dict] = None,
        dram_kwargs: Optional[dict] = None,
        artifact_store=None,
        pipeline=None,
        engine: str = "graph",
        trace_hub=None,
    ) -> None:
        if memory not in ("spm", "cache", "ideal"):
            raise ValueError(f"unknown memory configuration '{memory}'")
        self.memory = memory
        self.config = config or DeviceConfig()
        if memory == "ideal":
            # A copy: the caller's config may serve other runs.
            self.config = replace(self.config, ideal_memory=True)
        self.profile = profile or default_profile(self.config.cycle_time_ns)
        if isinstance(source, (Module, Artifact)):
            # Prebuilt upstream (e.g. compiled once by the sweep parent
            # and shipped here); unroll_factor/pipeline were already
            # baked in by whoever built it.
            self.module = source.module if isinstance(source, Artifact) else source
        else:
            from repro.build.pipeline import build_module

            self.module = build_module(
                source, func_name, pipeline=pipeline,
                unroll_factor=unroll_factor, store=artifact_store,
                trace_hub=trace_hub,
            ).module
        self.func_name = func_name

        self.system = System(f"{func_name}.sys", clock_freq_hz=self.config.clock_freq_hz)
        self.unit = ComputeUnit(
            f"{func_name}.acc",
            self.system,
            self.module,
            func_name,
            self.profile,
            config=self.config,
            engine=engine,
            artifact_store=artifact_store,
            trace_hub=trace_hub,
        )

        if memory in ("spm", "ideal"):
            self.spm = Scratchpad(
                f"{func_name}.spm",
                self.system,
                base=self.SPM_BASE,
                size=spm_bytes,
                read_ports=spm_read_ports,
                write_ports=spm_write_ports,
                banks=spm_banks,
                clock=self.unit.clock,
            )
            self.unit.attach_private_spm(self.spm)
            self.unit.comm.add_memory_route(self.spm.range, self.spm.make_port("acc"))
            self.data_mem = self.spm.image
            self.dram = None
            self.cache = None
        else:
            dram_kwargs = dict(dram_kwargs or {})
            dram_size = dram_kwargs.pop("size", 1 << 24)
            self.dram = DRAM(
                f"{func_name}.dram",
                self.system,
                base=self.DRAM_BASE,
                size=dram_size,
                clock=self.unit.clock,
                **dram_kwargs,
            )
            self.cache = Cache(
                f"{func_name}.l1",
                self.system,
                clock=self.unit.clock,
                **(cache_kwargs or {}),
            )
            self.cache.mem_side.bind(self.dram.port)
            self.unit.comm.add_memory_route(self.dram.range, self.cache.cpu_side)
            self.data_mem = self.dram.image
            self.spm = None

    # -- data staging ----------------------------------------------------------
    def alloc_array(self, array: np.ndarray) -> int:
        return self.data_mem.alloc_array(np.ascontiguousarray(array))

    def alloc(self, nbytes: int) -> int:
        return self.data_mem.alloc(nbytes)

    def read_array(self, addr: int, dtype, count: int) -> np.ndarray:
        return self.data_mem.read_array(addr, dtype, count)

    # -- static checks --------------------------------------------------------------
    def lint(self):
        """System lints over this harness: address-map overlaps, the
        kernel's static footprint vs. the SPM, and any DMA transfers.
        Returns an `repro.analysis.AnalysisReport`."""
        from repro.analysis.syslint import (
            describe_soc,
            footprints_from_module,
            lint_system,
        )

        desc = describe_soc(self)
        if self.spm is not None:
            desc.kernels.extend(
                footprints_from_module(self.module, self.func_name,
                                       region=self.spm.name))
        return lint_system(desc)

    # -- lifecycle ------------------------------------------------------------------
    def reset(self) -> None:
        """Tear down run state: event queue, per-object state, stats,
        and the data-memory allocator.  After a reset the accelerator can
        stage and run again from a clean slate."""
        self.system.reset()
        self.data_mem.reset_allocator()

    # -- execution ------------------------------------------------------------------
    def run(self, args: list, max_ticks: Optional[int] = None,
            watchdog=None) -> RunResult:
        done = {"flag": False}

        def on_done():
            done["flag"] = True

        self.unit.launch(args, on_done=on_done)
        self.system.run(max_tick=max_ticks, watchdog=watchdog)
        if not done["flag"]:
            raise RuntimeError(
                f"{self.func_name}: simulation ended before kernel "
                f"completion"
            )
        engine = self.unit.engine
        return RunResult(
            cycles=engine.total_cycles,
            runtime_ns=engine.runtime_ns(),
            power=self.unit.power_report(),
            area=self.unit.area_report(),
            occupancy=engine.occupancy,
            fu_counts=dict(self.unit.iface.cdfg.fu_counts),
            stats=self.system.dump_stats(),
        )


@dataclass
class SoC:
    """The assembled full-system platform (Fig. 1)."""

    system: System
    dram: DRAM
    global_xbar: Crossbar
    host: HostAgent
    irq: InterruptController
    clusters: list[AcceleratorCluster] = field(default_factory=list)
    #: Engine selector handed to every accelerator of every cluster.
    engine: str = "graph"

    def add_cluster(
        self,
        name: str,
        shared_spm_bytes: int = 0,
        mmr_base: int = 0x1000_0000,
        spm_base: int = 0x2000_0000,
        llc: Optional[Cache] = None,
        acc_clock: Optional[ClockDomain] = None,
    ) -> AcceleratorCluster:
        cluster = AcceleratorCluster(
            name,
            self.system,
            mmr_base=mmr_base,
            spm_base=spm_base,
            shared_spm_bytes=shared_spm_bytes,
            clock=acc_clock or self.system.clock,
            engine=self.engine,
        )
        self.clusters.append(cluster)
        return cluster

    def finalize(self) -> None:
        """Wire every cluster below the global crossbar."""
        for cluster in self.clusters:
            cluster.connect_global(self.global_xbar, self.dram.range)

    def address_map(self) -> list:
        """Every mapped region (MMR/SPM/DRAM/...) as `MemRegion` records."""
        from repro.analysis.syslint import describe_soc

        return describe_soc(self).regions

    def lint(self):
        """System lints (SYS301-306) over the assembled platform.

        Returns an `repro.analysis.AnalysisReport`; run after
        :meth:`finalize` (and after a simulation, to also validate the
        DMA transfers the run actually programmed and check the
        concurrency rules against the recorded driver/launch logs).
        """
        from repro.analysis.concurrency import describe_concurrency
        from repro.analysis.syslint import describe_soc, lint_system

        desc = describe_soc(self)
        desc.concurrency = describe_concurrency(self)
        return lint_system(desc)

    def simulation(self) -> "Simulation":
        """An execution-layer `Simulation` owning this platform's system."""
        from repro.exec.context import Simulation

        return Simulation(self.system)

    def run(self, max_ticks: Optional[int] = None,
            max_events: Optional[int] = None, watchdog=None) -> str:
        return self.simulation().run(max_tick=max_ticks, max_events=max_events,
                                     watchdog=watchdog)


def build_soc(
    name: str = "soc",
    dram_size: int = 1 << 24,
    dram_base: int = 0x8000_0000,
    host_clock_hz: float = 1.2e9,
    system_clock_hz: float = 1e9,
    host_op_overhead_cycles=25,
    engine: str = "graph",
) -> SoC:
    """Create the host + interconnect + DRAM skeleton of Fig. 1.

    ``engine`` selects the accelerators' execution backend
    (`repro.engine.ENGINES`; ``"dynamic"`` is the differential oracle).
    """
    system = System(name, clock_freq_hz=system_clock_hz)
    global_xbar = Crossbar(f"{name}.gxbar", system)
    dram = DRAM(f"{name}.dram", system, base=dram_base, size=dram_size)
    global_xbar.attach_slave(dram.port, dram.range, label="dram")
    irq = InterruptController(f"{name}.gic", system)
    host_clock = ClockDomain(f"{name}.host_clk", host_clock_hz)
    host = HostAgent(
        f"{name}.host",
        system,
        irq_controller=irq,
        op_overhead_cycles=host_op_overhead_cycles,
        clock=host_clock,
    )
    host.port.bind(global_xbar.slave_port("host"))
    return SoC(system=system, dram=dram, global_xbar=global_xbar, host=host,
               irq=irq, engine=engine)

