"""LLVM Interface: static elaboration and static metrics.

Mirrors Fig. 2 of the paper: takes the compiled IR, the hardware
profile, and the device config; extracts the static CDFG; maps
instructions to virtual functional units and registers; and produces
the static power/area baseline.  The resulting object parameterizes
both the runtime engine and the power model.

The FU mapping itself comes from an `ElaborationRecord`: the build
pipeline's elaborate stage (`BuildPipeline.elaborate`) looks it up in
the artifact store or computes it and hands it in, so a unit never
repeats an elaboration the store already holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.cdfg import ElaborationRecord, StaticCDFG
from repro.core.config import DeviceConfig
from repro.hw.power import AreaReport
from repro.hw.profile import HardwareProfile
from repro.ir.module import Function, Module


@dataclass
class StaticMetrics:
    fu_leakage_mw: float
    register_leakage_mw: float
    fu_area_um2: float
    register_area_um2: float
    register_bits: int
    fu_counts: dict[str, int]


class LLVMInterface:
    """Statically elaborated accelerator model.

    ``record`` is the function's `ElaborationRecord`, which holds no FU
    limits (the CDFG binds ``config.fu_limits``); without one the CDFG
    elaborates the function itself, with the same
    `repro.core.cdfg.elaborate_function`.
    """

    def __init__(
        self,
        module: Module,
        func_name: str,
        profile: HardwareProfile,
        config: DeviceConfig,
        record: Optional[ElaborationRecord] = None,
    ) -> None:
        config.validate()
        self.module = module
        self.func: Function = module.get_function(func_name)
        self.profile = profile
        self.config = config
        self.cdfg = StaticCDFG(self.func, fu_limits=config.fu_limits,
                               record=record)
        self.static = self._static_metrics()

    # ------------------------------------------------------------------
    def latency_for_class(self, fu_class: str) -> int:
        if fu_class in self.config.latency_overrides:
            return self.config.latency_overrides[fu_class]
        spec = self.profile.spec_for(fu_class)
        return spec.latency if spec is not None else 0

    def _static_metrics(self) -> StaticMetrics:
        fu_leakage = 0.0
        fu_area = 0.0
        for fu_class, count in self.cdfg.fu_counts.items():
            spec = self.profile.spec_for(fu_class)
            if spec is None:
                continue
            fu_leakage += spec.leakage_mw * count
            fu_area += spec.area_um2 * count
        bits = self.cdfg.register_bits
        register = self.profile.register
        return StaticMetrics(
            fu_leakage_mw=fu_leakage,
            register_leakage_mw=bits * register.leakage_mw_per_bit,
            fu_area_um2=fu_area,
            register_area_um2=bits * register.area_um2_per_bit,
            register_bits=bits,
            fu_counts=dict(self.cdfg.fu_counts),
        )

    def area_report(self, spm_um2: float = 0.0) -> AreaReport:
        return AreaReport(
            functional_units_um2=self.static.fu_area_um2,
            registers_um2=self.static.register_area_um2,
            spm_um2=spm_um2,
        )

    def summary(self) -> dict:
        info = self.cdfg.summary()
        info.update(
            {
                "fu_leakage_mw": self.static.fu_leakage_mw,
                "fu_area_um2": self.static.fu_area_um2,
                "register_area_um2": self.static.register_area_um2,
            }
        )
        return info
