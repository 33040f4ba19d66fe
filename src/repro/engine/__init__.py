"""Graph-compiled execution backend (the `repro.engine` package).

Splits the simulator into a frontend (`compile_graph`: lower an
elaborated design into a flat `SimGraph`) and a backend
(`GraphScheduler`: execute it with batched per-cycle updates instead of
per-instruction event-queue traffic), producing byte-identical stats to
the dynamic `RuntimeEngine` — see DESIGN.md, "Graph-compiled engine".

The graph engine is the default, on every memory configuration: the
scheduler models private-SPM and ideal memory inline and drives any
other memory (cache + DRAM) through the real memctrl ports, from a
tick event on the system's event queue, and it honours the run's
watchdog itself.  `resolve_engine` implements the documented fallback
rules: a graph run silently moves to the dynamic event-queue engine
whenever a feature the graph backend does not model is active (an
instrumentation-bus observer that declares a fallback reason — fault
injection, the access sanitizer — or strictly-ordered regions).
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


def resolve_engine(requested: str, acc) -> tuple[str, Optional[str]]:
    """Pick the engine that will actually run.

    ``acc`` is a `StandaloneAccelerator`, which has already checked
    ``requested`` against `ENGINES`.  Returns ``(engine, reason)`` where
    ``reason`` says why this run uses the event queue (None when the
    request is honoured).  The checks mirror what the graph backend
    models; anything else must take the dynamic path so behaviour (and
    error reporting) is unchanged.
    """
    if requested == "dynamic":
        return "dynamic", None
    for observer in acc.system.observers:
        if observer.fallback_reason is not None:
            return "dynamic", observer.fallback_reason
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
