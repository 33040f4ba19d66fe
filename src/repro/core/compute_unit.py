"""Compute Unit: the accelerator datapath SimObject (Sec. III-D1).

Binds a statically elaborated `LLVMInterface` — elaborated through the
build pipeline's store-aware elaborate stage — to a `RuntimeEngine` and
a `CommInterface`.  The host launches it by writing argument MMRs and
setting the START bit; a standalone harness calls :meth:`launch`
directly.  Either way :meth:`launch` runs the requested backend (the
graph-compiled `GraphScheduler` by default; every datapath lowers)
and, on completion, the unit sets DONE and raises its interrupt.  Also
collects the per-accelerator power report, combining datapath energy
from the engine with SPM access energy from an (optional) private
scratchpad.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.comm_interface import CommInterface
from repro.core.config import DeviceConfig
from repro.core.runtime import RuntimeEngine
from repro.hw.power import AreaReport, PowerReport
from repro.hw.profile import HardwareProfile
from repro.ir.module import Module
from repro.mem.spm import Scratchpad
from repro.sim.clock import ClockDomain
from repro.sim.probe import watches_memory
from repro.sim.simobject import SimObject, System


class ComputeUnit(SimObject):
    def __init__(
        self,
        name: str,
        system: System,
        module: Module,
        func_name: str,
        profile: HardwareProfile,
        config: Optional[DeviceConfig] = None,
        mmr_base: int = 0x1000_0000,
        clock: Optional[ClockDomain] = None,
        engine: str = "graph",
        artifact_store=None,
        trace_hub=None,
    ) -> None:
        from repro.engine import ENGINES

        if engine not in ENGINES:
            raise ValueError(
                f"unknown engine '{engine}'; valid: {', '.join(ENGINES)}"
            )
        super().__init__(name, system, clock)
        self.config = config or DeviceConfig(name=name)
        if clock is None and self.config.clock_freq_hz:
            clock = ClockDomain(f"{name}.clk", self.config.clock_freq_hz)
            self.clock = clock
        from repro.build.pipeline import BuildPipeline

        #: Elaborates now and lowers on the first graph launch, through
        #: ``artifact_store`` when given: once per function per store.
        #: Both spans reach ``trace_hub``'s ``build`` channel: the unit
        #: elaborates before its system has a probe attached.
        self._stages = BuildPipeline(store=artifact_store,
                                     trace_hub=trace_hub)
        #: The `ElaboratedDesign` from the build pipeline's elaborate stage.
        self.design = self._stages.elaborate(
            module, func_name, profile=profile, config=self.config).payload
        self.iface = self.design.iface
        self.comm = CommInterface(
            f"{name}.comm",
            system,
            mmr_base=mmr_base,
            config=self.config,
            num_args=max(8, len(self.iface.func.args)),
            clock=clock,
        )
        self.engine = RuntimeEngine(
            f"{name}.engine",
            system,
            self.iface,
            self.comm.memctrl,
            clock=clock,
        )
        self.comm.on_start(self._launch)
        #: Execution backend of every launch (`repro.engine.ENGINES`).
        self.engine_request = engine
        self._graph = None
        self.private_spm: Optional[Scratchpad] = None
        self._run_callbacks: list[Callable[[], None]] = []
        self.invocations = 0
        self.total_busy_cycles = 0
        #: (tick, args) per launch — replayed by the concurrency
        #: analysis to recover each invocation's pointer arguments.
        self.launch_log: list[tuple[int, list]] = []

    # ------------------------------------------------------------------
    def attach_private_spm(self, spm: Scratchpad) -> None:
        """Register a private SPM so its energy joins this unit's report."""
        self.private_spm = spm

    def on_done(self, callback: Callable[[], None]) -> None:
        self._run_callbacks.append(callback)

    # -- launch path ---------------------------------------------------------
    def _launch(self) -> None:
        """MMR START: read the argument registers and launch."""
        arg_types = [a.type for a in self.iface.func.args]
        self.launch(self.comm.read_arguments(arg_types))

    def launch(self, args: list, on_done: Optional[Callable[[], None]] = None) -> None:
        """Start one invocation with python argument values, on the
        requested engine."""
        from repro.engine import GraphScheduler

        graph = self.graph() if self.engine_request == "graph" else None
        self.invocations += 1
        self.launch_log.append((self.cur_tick, list(args)))
        done = self._done_callback(on_done)
        if graph is None:
            self.engine.start(args, on_done=done)
        else:
            GraphScheduler(graph, self).start(args, on_done=done)

    def graph(self):
        """The datapath's `SimGraph`, lowered once through the build
        pipeline's graph stage (and the artifact store, when given)."""
        if self._graph is None:
            self._graph = self._stages.graph(self.design).payload
        return self._graph

    def inline_spm(self) -> Optional[Scratchpad]:
        """The private SPM when the graph scheduler may model memory
        inline: the memctrl's only route is that SPM and the SPM has
        one port, so nothing but this unit can reach it, and no
        observer watches memory.  Otherwise (None) every access goes
        through the memctrl's ports."""
        spm = self.private_spm
        routes = self.comm.memctrl.routes
        if (spm is not None and len(spm.ports) == 1 and len(routes) == 1
                and routes[0][1].peer is spm.ports[0]
                and not any(map(watches_memory, self.system.observers))):
            return spm
        return None

    def _done_callback(self, on_done: Optional[Callable[[], None]]):
        """Completion: busy cycles, DONE bit, interrupt, then callbacks."""
        def _done():
            self.total_busy_cycles += self.engine.total_cycles
            self.comm.mmr.set_done()
            self.comm.raise_interrupt()
            for callback in self._run_callbacks:
                callback()
            if on_done is not None:
                on_done()
        return _done

    # -- reporting --------------------------------------------------------------
    def power_report(self) -> PowerReport:
        runtime_ns = self.engine.runtime_ns()
        report = PowerReport(
            runtime_ns=runtime_ns,
            fu_dynamic_pj=self.engine.fu_energy_pj,
            register_dynamic_pj=self.engine.register_energy_pj,
            fu_leakage_mw=self.iface.static.fu_leakage_mw,
            register_leakage_mw=self.iface.static.register_leakage_mw,
        )
        if self.private_spm is not None:
            report.spm_read_pj = self.private_spm.read_energy_pj()
            report.spm_write_pj = self.private_spm.write_energy_pj()
            report.spm_leakage_mw = self.private_spm.leakage_mw()
        return report

    def area_report(self) -> AreaReport:
        spm_area = self.private_spm.area_um2() if self.private_spm else 0.0
        return self.iface.area_report(spm_um2=spm_area)

    def summary(self) -> dict:
        info = self.iface.summary()
        info.update(
            {
                "cycles": self.engine.total_cycles,
                "runtime_ns": self.engine.runtime_ns(),
                "invocations": self.invocations,
            }
        )
        return info
