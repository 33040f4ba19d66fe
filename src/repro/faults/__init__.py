"""Deterministic fault injection and simulation hardening.

Three pieces, layered from data to enforcement:

* :mod:`repro.faults.plan` — `FaultPlan`/`FaultEvent`, the declarative
  seed-deterministic description of *what* goes wrong (bit flips,
  dropped/delayed DMA transfers, stalled ports, MMR corruption) and
  *when* (at a tick, or on the Nth access).
* :mod:`repro.faults.injector` — `FaultInjector`, which arms a plan
  against a built `System` as an observer on the zero-overhead
  instrumentation bus (`repro.sim.probe`) and logs every injection on
  the ``faults`` trace channel.
* :mod:`repro.faults.watchdog` — `SimWatchdog`, which turns the hangs
  faults (or plain bugs) cause into structured `SimulationHang` errors
  carrying the in-flight instruction dump.

Quick start::

    from repro.exec import SimContext
    from repro.faults import FaultPlan
    from repro.workloads import get_workload

    plan = FaultPlan.parse(["bit_flip@spm:access=1,addr=0x20000007,bit=6"])
    ctx = SimContext(get_workload("gemm_dse"), memory="spm", faults=plan,
                     watchdog=True)
    ctx.run()   # raises: the golden model catches the flipped input
"""

from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    FAULT_KINDS,
    FaultConfigError,
    FaultEvent,
    FaultPlan,
    parse_faultspec,
)
from repro.faults.watchdog import SimWatchdog, coerce_watchdog, watchdog_spec
from repro.sim.eventq import SimulationHang

__all__ = [
    "FAULT_KINDS",
    "FaultConfigError",
    "FaultEvent",
    "FaultPlan",
    "parse_faultspec",
    "FaultInjector",
    "SimWatchdog",
    "coerce_watchdog",
    "watchdog_spec",
    "SimulationHang",
]
