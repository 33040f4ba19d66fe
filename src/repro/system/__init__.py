"""Full-system layer: interrupt controller, host driver agent, SoC builders."""

from repro.system.interrupts import InterruptController
from repro.system.host import HostAgent, DriverProgram
from repro.system.soc import (
    StandaloneAccelerator,
    RunResult,
    build_soc,
    SoC,
)

__all__ = [
    "InterruptController",
    "HostAgent",
    "DriverProgram",
    "StandaloneAccelerator",
    "RunResult",
    "build_soc",
    "SoC",
]
