"""Graph-compiled execution backend (the `repro.engine` package).

Splits the simulator into a frontend (`compile_graph`: lower an
elaborated design into a flat `SimGraph`) and a backend
(`GraphScheduler`: execute it with batched per-cycle updates instead of
per-instruction event-queue traffic), producing byte-identical stats to
the dynamic `RuntimeEngine` — see DESIGN.md, "Graph-compiled engine".

The graph engine is the default, on every memory configuration and
for every launch, standalone or host-programmed through the MMRs
(`ComputeUnit.launch` is the one launch path), observed or not.  The
scheduler models a private SPM nothing else reaches or watches inline,
drives any other memory through the real memctrl ports from a tick
event on the system's event queue, orders strictly-ordered (stream)
regions in its conflict scan, and honours the run's watchdog itself.
Lowering is total: an instruction the datapath cannot execute becomes
a trap node that raises the dynamic engine's `EngineError` when it
issues.  A run is on the dynamic engine only when ``engine="dynamic"``
asks for it, as the differential oracle.
"""

from __future__ import annotations

from repro.engine.graph import (
    GRAPH_FORMAT_VERSION,
    SimGraph,
    compile_graph,
    graph_key,
)
from repro.engine.scheduler import GraphScheduler

ENGINES = ("dynamic", "graph")


__all__ = [
    "ENGINES",
    "GRAPH_FORMAT_VERSION",
    "GraphScheduler",
    "SimGraph",
    "compile_graph",
    "graph_key",
]
