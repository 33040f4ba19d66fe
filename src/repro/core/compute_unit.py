"""Compute Unit: the accelerator datapath SimObject (Sec. III-D1).

Binds a statically elaborated `LLVMInterface` to a `RuntimeEngine` and
a `CommInterface`.  The host launches it by writing argument MMRs and
setting the START bit; on completion the unit sets DONE and raises its
interrupt.  Also collects the per-accelerator power report, combining
datapath energy from the engine with SPM access energy from an
(optional) private scratchpad.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.comm_interface import CommInterface
from repro.core.config import DeviceConfig
from repro.core.llvm_interface import LLVMInterface
from repro.core.runtime import RuntimeEngine
from repro.hw.power import AreaReport, PowerReport
from repro.hw.profile import HardwareProfile
from repro.ir.module import Module
from repro.mem.spm import Scratchpad
from repro.sim.clock import ClockDomain
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
    ) -> None:
        super().__init__(name, system, clock)
        self.config = config or DeviceConfig(name=name)
        if clock is None and self.config.clock_freq_hz:
            clock = ClockDomain(f"{name}.clk", self.config.clock_freq_hz)
            self.clock = clock
        self.iface = LLVMInterface(module, func_name, profile, self.config)
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
        arg_types = [a.type for a in self.iface.func.args]
        args = self.comm.read_arguments(arg_types)
        self.invocations += 1
        self.launch_log.append((self.cur_tick, list(args)))
        self.engine.start(args, on_done=self._done_callback(None))

    # -- direct (host-less) programming, for standalone harnesses -------------
    def launch(self, args: list, on_done: Optional[Callable[[], None]] = None) -> None:
        """Start directly with python argument values (no host involved)."""
        self.invocations += 1
        self.launch_log.append((self.cur_tick, list(args)))
        self.engine.start(args, on_done=self._done_callback(on_done))

    def launch_compiled(self, graph, args: list,
                        on_done: Optional[Callable[[], None]] = None) -> None:
        """:meth:`launch`, with the graph-compiled backend
        (`repro.engine`) driving the datapath instead of the dynamic
        engine.  Stats, energy, and the DONE / interrupt protocol land
        exactly where :meth:`launch` puts them."""
        from repro.engine.scheduler import GraphScheduler

        self.invocations += 1
        self.launch_log.append((self.cur_tick, list(args)))
        GraphScheduler(graph, self).start(args,
                                          on_done=self._done_callback(on_done))

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
