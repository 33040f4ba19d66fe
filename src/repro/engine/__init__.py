"""Graph-compiled execution backend (the `repro.engine` package).

Splits the simulator into a frontend (`compile_graph`: lower an
elaborated design into a flat `SimGraph`) and a backend
(`GraphScheduler`: execute it with batched per-cycle updates instead of
per-instruction event-queue traffic), producing byte-identical stats to
the dynamic `RuntimeEngine` — see DESIGN.md, "Graph-compiled engine".

The graph engine is the default, on every memory configuration and
for every launch, standalone or host-programmed through the MMRs
(`ComputeUnit.launch` is the one launch path).  The scheduler models a
private SPM only the unit can reach inline, drives any other memory
(cache + DRAM, a cluster's crossbar, stream ports) through the real
memctrl ports from a tick event on the system's event queue, orders
strictly-ordered (stream) regions in its conflict scan, and honours
the run's watchdog itself.  `resolve_engine` implements the one
fallback rule: a graph launch moves to the dynamic event-queue engine
when an instrumentation-bus observer declares a fallback reason (fault
injection, the access sanitizer).
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


def resolve_engine(requested: str, unit) -> tuple[str, Optional[str]]:
    """Pick the engine that will actually run ``unit``'s next launch.

    ``unit`` is a `ComputeUnit`; ``requested`` is its engine selector,
    already checked against `ENGINES`.  Returns ``(engine, reason)``
    where ``reason`` says why this launch uses the event queue (None
    when the request is honoured).
    """
    if requested == "dynamic":
        return "dynamic", None
    for observer in unit.system.observers:
        if observer.fallback_reason is not None:
            return "dynamic", observer.fallback_reason
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
