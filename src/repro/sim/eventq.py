"""Global event queue for the discrete-event simulation kernel.

The design mirrors gem5's event queue: events carry an absolute tick and
a priority; the queue pops events in (tick, priority, sequence) order.
Ticks are integers (picoseconds by convention, so a 1 GHz clock has a
1000-tick period).  Simulation proceeds by draining the queue until it
is empty, a tick limit is reached, or an exit event fires.
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional


class SimulationError(RuntimeError):
    """Raised for fatal conditions inside the simulation kernel."""


class SimulationHang(SimulationError):
    """A watchdog tripped: the simulation stopped making forward progress.

    ``reason`` is ``'deadlock'`` (the event queue drained while an engine
    still reports in-flight work), ``'livelock'`` (events keep firing but
    no instruction has committed for the configured budget), or
    ``'wallclock'`` (the run exceeded its wall-clock allowance).
    ``inflight`` carries the in-flight instruction dump captured at the
    moment the watchdog fired, so a hang is diagnosable post-mortem.
    """

    def __init__(self, reason: str, tick: int,
                 inflight: Optional[list] = None, details: str = "") -> None:
        self.reason = reason
        self.tick = tick
        self.inflight = list(inflight or [])
        self.details = details
        lines = [f"simulation hang ({reason}) at tick {tick}"]
        if details:
            lines.append(details)
        if self.inflight:
            lines.append("in-flight work:")
            lines.extend(f"  {entry}" for entry in self.inflight)
        super().__init__("\n".join(lines))


class Event:
    """A schedulable callback.

    Events are one-shot: firing (or cancelling) leaves them unscheduled,
    after which they may be scheduled again.  ``priority`` breaks ties at
    the same tick; lower runs first (gem5 convention).
    """

    # Priority bands, mirroring gem5's defaults.
    MINIMUM_PRI = -100
    DEFAULT_PRI = 0
    CPU_TICK_PRI = 50
    STAT_PRI = 90
    MAXIMUM_PRI = 100

    __slots__ = ("callback", "priority", "name", "_when", "_scheduled", "_gen")

    def __init__(
        self,
        callback: Callable[[], None],
        priority: int = DEFAULT_PRI,
        name: str = "",
    ) -> None:
        self.callback = callback
        self.priority = priority
        self.name = name or getattr(callback, "__qualname__", "event")
        self._when: int = -1
        self._scheduled = False
        self._gen = 0  # bumped on every (de)schedule; stale heap entries skip

    @property
    def when(self) -> int:
        """Tick this event is scheduled for (-1 if unscheduled)."""
        return self._when

    def scheduled(self) -> bool:
        return self._scheduled

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = f"@{self._when}" if self._scheduled else "idle"
        return f"<Event {self.name} {state}>"


class EventQueue:
    """Priority queue of :class:`Event` ordered by (tick, priority, seq)."""

    def __init__(self, name: str = "main") -> None:
        self.name = name
        self._heap: list[tuple[int, int, int, Event, int]] = []
        self._seq = 0
        self._cur_tick = 0
        self._exit_requested = False
        self._exit_message = ""
        self._events_fired = 0
        # ``max_tick`` and ``watchdog`` of the latest run(): a callback
        # running ahead (see try_advance) must not pass the one and
        # checks in with the other.
        self._limit: Optional[int] = None
        self._watchdog = None
        #: ``(tick, priority, seq)`` of the event :meth:`run` is firing
        #: (the latest one between events), None before the first.
        self.firing_key: Optional[tuple[int, int, int]] = None
        # Optional observer called as hook(event, tick) just before each
        # event fires (wired by System.attach_probe).  One attribute
        # compare per event when unset.
        self.trace_hook: Optional[Callable[[Event, int], None]] = None

    # ------------------------------------------------------------------
    # Scheduling API
    # ------------------------------------------------------------------
    @property
    def cur_tick(self) -> int:
        return self._cur_tick

    @property
    def events_fired(self) -> int:
        return self._events_fired

    @property
    def watchdog(self):
        """The watchdog passed to the latest :meth:`run` (or None).  A
        callback that runs many cycles inside one event calls its
        ``check`` itself, since ``run`` only checks between events."""
        return self._watchdog

    def schedule(self, event: Event, when: int) -> Event:
        """Schedule ``event`` at absolute tick ``when``."""
        if when < self._cur_tick:
            raise SimulationError(
                f"cannot schedule event '{event.name}' in the past "
                f"(when={when}, now={self._cur_tick})"
            )
        if event._scheduled:
            raise SimulationError(f"event '{event.name}' is already scheduled")
        event._when = when
        event._scheduled = True
        event._gen += 1
        self._seq += 1
        heapq.heappush(self._heap, (when, event.priority, self._seq, event, event._gen))
        return event

    def reserve_seq(self) -> int:
        """Take the sequence number a :meth:`schedule` call made now
        would give its event, for a caller that keeps the event itself:
        ``(tick, priority, seq)`` then orders against the queue's events
        exactly as the scheduled event would."""
        self._seq += 1
        return self._seq

    def schedule_callback(
        self,
        callback: Callable[[], None],
        when: int,
        priority: int = Event.DEFAULT_PRI,
        name: str = "",
    ) -> Event:
        """Convenience: wrap ``callback`` in an Event and schedule it."""
        event = Event(callback, priority=priority, name=name)
        return self.schedule(event, when)

    def deschedule(self, event: Event) -> None:
        """Cancel a scheduled event (lazy removal)."""
        if not event._scheduled:
            raise SimulationError(f"event '{event.name}' is not scheduled")
        event._gen += 1  # invalidate the heap entry lazily
        event._scheduled = False

    def reschedule(self, event: Event, when: int) -> None:
        if event._scheduled:
            self.deschedule(event)
        self.schedule(event, when)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def empty(self) -> bool:
        self._drop_squashed()
        return not self._heap

    def _drop_squashed(self) -> None:
        while self._heap:
            __, __, __, event, gen = self._heap[0]
            if event._gen == gen and event._scheduled:
                return
            heapq.heappop(self._heap)

    def next_tick(self) -> Optional[int]:
        """Tick of the next live event, or None if the queue is empty."""
        self._drop_squashed()
        return self._heap[0][0] if self._heap else None

    def try_advance(self, tick: int) -> bool:
        """Move the clock forward to ``tick`` without firing anything.

        For a callback that runs ahead of the queue (the graph
        scheduler's cycle loop): the move succeeds only when no live
        event is due at or before ``tick`` and the running ``max_tick``
        allows it.  On False the caller schedules an event at ``tick``
        instead and returns, so everything due first fires in its usual
        (tick, priority, sequence) order.
        """
        if tick < self._cur_tick:
            raise SimulationError(
                f"cannot advance to tick {tick} in the past "
                f"(now={self._cur_tick})"
            )
        if self._heap:
            self._drop_squashed()
            if self._heap and self._heap[0][0] <= tick:
                return False
        if self._limit is not None and tick > self._limit:
            return False
        self._cur_tick = tick
        return True

    def exit_simulation(self, message: str = "") -> None:
        """Request that :meth:`run` return after the current event."""
        self._exit_requested = True
        self._exit_message = message

    def run(self, max_tick: Optional[int] = None, max_events: Optional[int] = None,
            watchdog=None) -> str:
        """Drain the queue.

        Returns a human-readable exit cause: ``"empty"``, ``"max_tick"``,
        ``"max_events"`` or the message passed to :meth:`exit_simulation`.

        ``watchdog`` is any object implementing ``begin(queue)``,
        ``check(queue)`` and ``on_drain(queue)`` (duck-typed so the kernel
        needs no imports — see `repro.faults.watchdog.SimWatchdog`).
        ``check`` runs every ``watchdog.interval`` fired events and may
        raise :class:`SimulationHang`; ``on_drain`` runs when the queue
        empties and may do the same for drain-while-running deadlocks.
        """
        self._exit_requested = False
        self._limit = max_tick
        self._watchdog = watchdog
        fired = 0
        check_every = 0
        if watchdog is not None:
            watchdog.begin(self)
            check_every = max(1, int(getattr(watchdog, "interval", 256)))
        while True:
            self._drop_squashed()
            if not self._heap:
                if watchdog is not None:
                    watchdog.on_drain(self)
                return "empty"
            when = self._heap[0][0]
            if max_tick is not None and when > max_tick:
                self._cur_tick = max_tick
                return "max_tick"
            entry = heapq.heappop(self._heap)
            self.firing_key = entry[:3]
            event = entry[3]
            self._cur_tick = when
            event._scheduled = False
            event._when = -1
            if self.trace_hook is not None:
                self.trace_hook(event, when)
            event.callback()
            self._events_fired += 1
            fired += 1
            if watchdog is not None and fired % check_every == 0:
                watchdog.check(self)
            if self._exit_requested:
                return self._exit_message or "exit"
            if max_events is not None and fired >= max_events:
                return "max_events"

    def reset(self) -> None:
        """Clear all pending events and rewind time to tick 0."""
        self._heap.clear()
        self._cur_tick = 0
        self._seq = 0
        self._exit_requested = False
        self._exit_message = ""
        self._events_fired = 0
        self._limit = None
        self._watchdog = None
        self.firing_key = None
