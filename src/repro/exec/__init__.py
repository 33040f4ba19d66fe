"""Unified execution layer: simulation lifecycle, caching, parallel sweeps.

The one place that knows how to take a kernel + configuration to a
`RunResult`: `SimContext` (build → stage → run → collect), `Simulation`
(event-loop execution over a built `System`), `RunCache`
(content-addressed results), and `ParallelSweep` (process-parallel DSE
grids).  `repro.dse`, `repro.system`, the CLI, and the benchmarks all
launch simulations through this layer.
"""

from repro.exec.cache import RunCache, run_cache_key, split_cache_key
from repro.exec.context import SimContext, Simulation
from repro.exec.failures import FailureRecord, SweepPointError
from repro.exec.parallel import ParallelSweep, SweepPoint, grid_points
from repro.exec.params import (
    DATAPATH_PARAMS,
    EXECUTION_PARAMS,
    MEMORY_PARAMS,
    classify_param,
    split_acc_kwargs,
)
from repro.system.soc import RunResult

__all__ = [
    "RunCache",
    "run_cache_key",
    "split_cache_key",
    "DATAPATH_PARAMS",
    "MEMORY_PARAMS",
    "EXECUTION_PARAMS",
    "classify_param",
    "split_acc_kwargs",
    "SimContext",
    "Simulation",
    "FailureRecord",
    "SweepPointError",
    "ParallelSweep",
    "SweepPoint",
    "grid_points",
    "RunResult",
]
