"""repro: a Python reproduction of gem5-SALAM (MICRO 2020).

LLVM-based pre-RTL modeling and simulation of custom hardware
accelerators: compile a C kernel to SSA IR, statically elaborate it
into a datapath (CDFG + functional units + registers), then execute it
cycle by cycle inside an event-driven full-system simulation with
scratchpads, caches, DMAs, stream buffers, and a host driver agent.

Quick start::

    from repro import StandaloneAccelerator
    import numpy as np

    SRC = '''
    void vecadd(double a[64], double b[64], double c[64]) {
      for (int i = 0; i < 64; i++) { c[i] = a[i] + b[i]; }
    }
    '''
    acc = StandaloneAccelerator(SRC, "vecadd", memory="spm", spm_bytes=1 << 14)
    a, b = np.arange(64.0), np.ones(64)
    pa, pb, pc = acc.alloc_array(a), acc.alloc_array(b), acc.alloc(512)
    result = acc.run([pa, pb, pc])
    print(result.cycles, result.power.total_mw)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-experiment index.
"""

from repro.analysis import (
    AnalysisReport,
    Diagnostic,
    PassDivergenceError,
    Severity,
    dependence_report,
    lint_module,
    lint_system,
)
from repro.build import (
    Artifact,
    ArtifactStore,
    BuildPipeline,
    ElaboratedDesign,
    PipelineSpec,
    build_design,
    build_module,
)
from repro.core.config import DeviceConfig
from repro.core.compute_unit import ComputeUnit
from repro.core.cluster import AcceleratorCluster
from repro.frontend import compile_c
from repro.hw.default_profile import default_profile
from repro.exec import (
    FailureRecord,
    ParallelSweep,
    RunCache,
    SimContext,
    Simulation,
    SweepPointError,
)
from repro.faults import FaultPlan, SimWatchdog, SimulationHang
from repro.system.soc import (
    RunResult,
    SoC,
    StandaloneAccelerator,
    build_soc,
)
from repro.serve import JobServer, ServeClient, start_server_thread
from repro.trace import TraceConfig, TraceHub
from repro.workloads import all_workload_names, get_workload

__version__ = "1.1.0"

__all__ = [
    "AnalysisReport",
    "Diagnostic",
    "PassDivergenceError",
    "Severity",
    "dependence_report",
    "lint_module",
    "lint_system",
    "Artifact",
    "ArtifactStore",
    "BuildPipeline",
    "ElaboratedDesign",
    "PipelineSpec",
    "build_design",
    "build_module",
    "DeviceConfig",
    "ComputeUnit",
    "AcceleratorCluster",
    "compile_c",
    "default_profile",
    "StandaloneAccelerator",
    "RunResult",
    "SimContext",
    "Simulation",
    "ParallelSweep",
    "RunCache",
    "FailureRecord",
    "SweepPointError",
    "FaultPlan",
    "SimWatchdog",
    "SimulationHang",
    "SoC",
    "build_soc",
    "JobServer",
    "ServeClient",
    "start_server_thread",
    "TraceConfig",
    "TraceHub",
    "get_workload",
    "all_workload_names",
    "__version__",
]
