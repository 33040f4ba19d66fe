"""Graph-compiled execution backend (the `repro.engine` package).

Splits the simulator into a frontend (`compile_graph`: lower an
elaborated design into a flat `SimGraph`) and a backend
(`GraphScheduler`: execute it with batched per-cycle updates instead of
per-instruction event-queue traffic), producing byte-identical stats to
the dynamic `RuntimeEngine` — see DESIGN.md, "Graph-compiled engine".

`resolve_engine` implements the documented fallback rules: requests for
the graph engine silently degrade to the dynamic engine whenever a
feature the graph backend does not model is active (cache-backed
memory, an instrumentation-bus observer that declares a fallback
reason, watchdogs, event budgets, pipeline traces).
"""

from __future__ import annotations

from typing import Optional

from repro.engine.graph import (
    GRAPH_FORMAT_VERSION,
    GraphLoweringError,
    SimGraph,
    compile_graph,
    graph_key,
)
from repro.engine.scheduler import GraphScheduler

ENGINES = ("dynamic", "graph")


def resolve_engine(requested: str, acc, max_events: Optional[int] = None,
                   watchdog=None) -> tuple[str, Optional[str]]:
    """Pick the engine that will actually run.

    ``acc`` is a `StandaloneAccelerator`.  Returns ``(engine, reason)``
    where ``reason`` explains a graph->dynamic fallback (None when the
    request is honoured).  The checks mirror what the graph backend
    models; anything else must take the dynamic path so behaviour (and
    error reporting) is unchanged.
    """
    if requested not in ENGINES:
        raise ValueError(
            f"unknown engine '{requested}'; valid: {', '.join(ENGINES)}"
        )
    if requested == "dynamic":
        return "dynamic", None
    if acc.memory not in ("spm", "ideal"):
        return "dynamic", f"memory='{acc.memory}' is not graph-modelled"
    if watchdog is not None:
        return "dynamic", "watchdog attached"
    if max_events is not None:
        return "dynamic", "max_events budget requires the event queue"
    for observer in acc.system.observers:
        if observer.fallback_reason is not None:
            return "dynamic", observer.fallback_reason
    if acc.unit.engine.pipeline_trace is not None:
        return "dynamic", "pipeline trace attached"
    if acc.unit.comm.memctrl.strict_ranges:
        return "dynamic", "strictly-ordered memory regions"
    return "graph", None


__all__ = [
    "ENGINES",
    "GRAPH_FORMAT_VERSION",
    "GraphLoweringError",
    "GraphScheduler",
    "SimGraph",
    "compile_graph",
    "graph_key",
    "resolve_engine",
]
