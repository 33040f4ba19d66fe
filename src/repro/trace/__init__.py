"""Unified simulation tracing & telemetry (`repro.trace`).

The observability layer over the whole platform: SimObjects emit
timestamped events onto named channels (``compute``, ``mem``, ``dma``,
``irq``, ``host``, ``sched``); a `TraceHub` buffers them in a bounded
ring with drop accounting; exporters render Chrome trace-event JSON
(Perfetto-loadable), plain text logs, and per-cycle occupancy/stall
timelines.  When no hub is attached every instrumentation site is a
single ``None`` check — untraced runs are cycle- and wall-clock
identical to the uninstrumented simulator.

Entry points: ``System.attach_probe(TraceHub(...))`` (any built system),
``SimContext(trace=...)`` (the execution layer), and ``python -m repro run ... --trace compute,mem
--trace-out trace.json`` (the CLI).
"""

from repro.trace.export import (
    chrome_trace,
    format_timeline,
    occupancy_timeline,
    to_chrome_json,
    to_text,
    write_trace,
)
from repro.trace.hub import (
    CHANNELS,
    DEFAULT_CAPACITY,
    TraceConfig,
    TraceError,
    TraceEvent,
    TraceHub,
    parse_channels,
)

__all__ = [
    "CHANNELS",
    "DEFAULT_CAPACITY",
    "TraceConfig",
    "TraceError",
    "TraceEvent",
    "TraceHub",
    "parse_channels",
    "chrome_trace",
    "to_chrome_json",
    "to_text",
    "occupancy_timeline",
    "format_timeline",
    "write_trace",
]
