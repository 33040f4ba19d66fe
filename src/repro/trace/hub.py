"""The trace hub: a bounded, channelized event sink for the simulator.

The paper's dynamic runtime engine "logs which instructions are
scheduled or in-flight for each cycle" (Sec. III-C2).  `TraceHub`
generalizes that log to the whole platform: every instrumented
`SimObject` emits :class:`TraceEvent` records onto a named channel
(``compute``, ``mem``, ``dma``, ``irq``, ``host``, ``sched``,
``faults``), and the hub stores them in one bounded ring buffer with
per-channel emit/drop accounting.

Design constraints, in order:

* **Zero overhead when detached.**  The hub is an observer on the
  instrumentation bus (`repro.sim.probe`): an untraced simulation pays
  one pointer compare per site and produces bit- and cycle-identical
  results.
* **Bounded memory.**  The ring holds ``capacity`` events; older events
  are evicted (and counted as dropped, per channel) rather than growing
  without bound.  Tracing a long run degrades to "the most recent
  window", never to an OOM.
* **Filterable at the source.**  A hub built with a channel subset
  discards other channels before they ever reach the ring, so tracing
  ``compute`` only does not pay for per-packet memory events.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Union

from repro.sim.probe import Probe

#: The first-class channels: one per platform layer, plus ``faults``
#: for `repro.faults` injections (so injected events line up with the
#: compute/memory activity they perturb in a Chrome trace) and
#: ``build`` for per-stage compile timings from `repro.build`.
CHANNELS = ("compute", "mem", "dma", "irq", "host", "sched", "faults",
            "build")

#: Default ring capacity (events).  Big enough for every workload in
#: the repo to trace un-dropped; small enough to stay far from OOM.
DEFAULT_CAPACITY = 1 << 18


class TraceError(ValueError):
    """Raised for invalid trace configuration (bad channel names, ...)."""


class TraceEvent:
    """One timestamped occurrence on a channel.

    ``tick`` is the event's start in simulation ticks (picoseconds);
    ``dur`` is its extent in ticks (0 for instantaneous events);
    ``source`` is the emitting SimObject's name; ``kind`` is a short
    event label (an opcode, ``read``, ``irq_raise``, ...); ``args`` is
    an optional dict of JSON-safe detail.
    """

    __slots__ = ("tick", "channel", "source", "kind", "dur", "args")

    def __init__(self, tick: int, channel: str, source: str, kind: str,
                 dur: int = 0, args: Optional[dict] = None) -> None:
        self.tick = tick
        self.channel = channel
        self.source = source
        self.kind = kind
        self.dur = dur
        self.args = args

    def to_dict(self) -> dict:
        data = {"tick": self.tick, "channel": self.channel,
                "source": self.source, "kind": self.kind, "dur": self.dur}
        if self.args:
            data["args"] = dict(self.args)
        return data

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        span = f"+{self.dur}" if self.dur else ""
        return f"<TraceEvent {self.channel} {self.source} {self.kind} @{self.tick}{span}>"


def parse_channels(spec: Union[str, Iterable[str], None]) -> tuple[str, ...]:
    """Normalize a channel spec to a validated tuple.

    Accepts ``None`` / ``"all"`` (every channel), a comma-separated
    string (the CLI form), or an iterable of names.
    """
    if spec is None:
        return CHANNELS
    if isinstance(spec, str):
        if spec.strip() in ("", "all"):
            return CHANNELS
        names = [part.strip() for part in spec.split(",") if part.strip()]
    else:
        names = list(spec)
    unknown = [name for name in names if name not in CHANNELS]
    if unknown:
        raise TraceError(
            f"unknown trace channel(s) {unknown}; valid: {', '.join(CHANNELS)}"
        )
    # Preserve canonical order, drop duplicates.
    return tuple(ch for ch in CHANNELS if ch in names)


class TraceHub(Probe):
    """Channelized event sink with bounded storage and drop accounting."""

    def __init__(
        self,
        channels: Union[str, Iterable[str], None] = None,
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        if capacity <= 0:
            raise TraceError(f"trace capacity must be positive, got {capacity}")
        self.channels = parse_channels(channels)
        self.capacity = capacity
        self._active = frozenset(self.channels)
        self._ring: deque[TraceEvent] = deque()
        self.emitted: dict[str, int] = {ch: 0 for ch in self.channels}
        self.dropped: dict[str, int] = {ch: 0 for ch in self.channels}
        self._listeners: list[Callable[[TraceEvent], None]] = []

    # -- recording ----------------------------------------------------------
    def enabled(self, channel: str) -> bool:
        return channel in self._active

    def emit(self, channel: str, source: str, kind: str, tick: int,
             dur: int = 0, args: Optional[dict] = None) -> None:
        """Record one event.  Inactive channels are discarded up front."""
        if channel not in self._active:
            return
        event = TraceEvent(tick, channel, source, kind, dur, args)
        ring = self._ring
        if len(ring) >= self.capacity:
            evicted = ring.popleft()
            self.dropped[evicted.channel] += 1
        ring.append(event)
        self.emitted[channel] += 1
        for listener in self._listeners:
            listener(event)

    def subscribe(self, listener: Callable[[TraceEvent], None],
                  channels: Union[str, Iterable[str], None] = None) -> None:
        """Stream events to ``listener`` as they are emitted.

        ``channels`` restricts delivery to a subset (default: everything
        the hub records).  Listeners see events before ring eviction, so
        a subscriber observes the full stream even past capacity.
        """
        wanted = frozenset(parse_channels(channels))
        if wanted == self._active or wanted >= self._active:
            self._listeners.append(listener)
        else:
            self._listeners.append(
                lambda event, fn=listener, want=wanted:
                    fn(event) if event.channel in want else None
            )

    # -- access -------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._ring)

    def events(self, channel: Optional[str] = None) -> list[TraceEvent]:
        """Buffered events in emission order, optionally one channel's."""
        if channel is None:
            return list(self._ring)
        return [event for event in self._ring if event.channel == channel]

    def sources(self) -> list[str]:
        """Distinct emitting SimObject names, in first-seen order."""
        seen: dict[str, None] = {}
        for event in self._ring:
            seen.setdefault(event.source, None)
        return list(seen)

    @property
    def total_emitted(self) -> int:
        return sum(self.emitted.values())

    @property
    def total_dropped(self) -> int:
        return sum(self.dropped.values())

    def clear(self) -> None:
        """Drop buffered events and zero the counters (keep configuration)."""
        self._ring.clear()
        for counts in (self.emitted, self.dropped):
            for channel in counts:
                counts[channel] = 0

    def summary(self) -> dict:
        """JSON-safe digest: per-channel counts, drops, and the time span."""
        ticks = [event.tick for event in self._ring]
        return {
            "channels": list(self.channels),
            "capacity": self.capacity,
            "emitted": dict(self.emitted),
            "dropped": dict(self.dropped),
            "total_emitted": self.total_emitted,
            "total_dropped": self.total_dropped,
            "buffered": len(self._ring),
            "first_tick": min(ticks) if ticks else None,
            "last_tick": max(ticks) if ticks else None,
        }

    def summary_json(self, indent: Optional[int] = None) -> str:
        """The summary through the shared stats serialization path."""
        from repro.sim.stats import stats_to_json

        return stats_to_json(self.summary(), indent=indent)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<TraceHub {len(self._ring)}/{self.capacity} events, "
                f"channels={','.join(self.channels)}>")


@dataclass(frozen=True)
class TraceConfig:
    """Picklable description of a tracing request.

    This is what crosses API boundaries (``SimContext(trace=...)``,
    ``ParallelSweep(trace=...)``, the CLI): channel subset, ring
    capacity, and an optional output path + format for exporters.
    Deliberately *not* part of any run-cache key — tracing is
    observability, it never changes simulated behaviour.
    """

    channels: tuple[str, ...] = CHANNELS
    capacity: int = DEFAULT_CAPACITY
    out: Optional[str] = None
    format: str = "chrome"  # 'chrome' | 'text'

    def __post_init__(self) -> None:
        object.__setattr__(self, "channels", parse_channels(self.channels))
        if self.capacity <= 0:
            raise TraceError(f"trace capacity must be positive, got {self.capacity}")
        if self.format not in ("chrome", "text"):
            raise TraceError(f"unknown trace format '{self.format}'")

    @classmethod
    def coerce(cls, value: Union["TraceConfig", str, Sequence[str], bool, None]
               ) -> Optional["TraceConfig"]:
        """Normalize the shorthand forms accepted by API entry points.

        ``None``/``False`` -> no tracing; ``True`` -> all channels;
        a string or iterable -> those channels; a config passes through.
        """
        if value is None or value is False:
            return None
        if value is True:
            return cls()
        if isinstance(value, TraceConfig):
            return value
        return cls(channels=parse_channels(value))

    def make_hub(self) -> TraceHub:
        return TraceHub(channels=self.channels, capacity=self.capacity)
