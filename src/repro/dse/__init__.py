"""Design-space exploration harness (Sec. IV-D)."""

from repro.dse.pareto import pareto_front
from repro.dse.reports import format_table, to_csv, to_json
from repro.exec.cache import RunCache
from repro.exec.parallel import ParallelSweep, SweepPoint, grid_points

__all__ = [
    "SweepPoint",
    "grid_points",
    "ParallelSweep",
    "RunCache",
    "pareto_front",
    "format_table",
    "to_csv",
    "to_json",
]
