"""SimObject base class and the top-level System container.

Every modelled hardware component derives from :class:`SimObject`, which
ties together a name, the shared event queue, a clock domain, and a stat
group.  :class:`System` owns the event queue, the registry of objects,
and the address map used to route packets.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.clock import ClockDomain, ClockedObject
from repro.sim.eventq import EventQueue
from repro.sim.probe import Probe, ProbeFanout
from repro.sim.stats import StatGroup, format_stats


class AddrRange:
    """A half-open address interval [start, end)."""

    __slots__ = ("start", "end")

    def __init__(self, start: int, size: int) -> None:
        if size <= 0:
            raise ValueError(f"address range size must be positive, got {size}")
        self.start = start
        self.end = start + size

    @property
    def size(self) -> int:
        return self.end - self.start

    def contains(self, addr: int, size: int = 1) -> bool:
        return self.start <= addr and addr + size <= self.end

    def overlaps(self, other: "AddrRange") -> bool:
        return self.start < other.end and other.start < self.end

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"[{self.start:#x}, {self.end:#x})"


class SimObject(ClockedObject):
    """Base class for all modelled components."""

    def __init__(self, name: str, system: "System", clock: Optional[ClockDomain] = None) -> None:
        super().__init__(system.eventq, clock or system.clock)
        self.name = name
        self.system = system
        self.stats = StatGroup(name)
        # The instrumentation bus (`repro.sim.probe`), or None: hot paths
        # guard on this one attribute, so a detached simulation pays a
        # single pointer compare per instrumentation site.
        self._probe: Optional[Probe] = None
        system.register(self)

    def init(self) -> None:
        """Called once after the full system is wired, before simulation."""

    def trace_emit(self, channel: str, kind: str, dur: int = 0,
                   args: Optional[dict] = None) -> None:
        """Emit a trace event at the current tick; no-op when detached."""
        probe = self._probe
        if probe is not None:
            probe.emit(channel, self.name, kind, self.eventq.cur_tick, dur, args)

    def reset(self) -> None:
        """Tear down run state so the object can simulate again.

        The base implementation clears statistics; objects with internal
        queues or in-flight transactions override and chain up.
        """
        self.reset_stats()

    def reset_stats(self) -> None:
        self.stats.reset()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name}>"


class System:
    """Top-level container: event queue, clocks, object registry."""

    def __init__(self, name: str = "system", clock_freq_hz: float = 1e9) -> None:
        self.name = name
        self.eventq = EventQueue(name)
        self.clock = ClockDomain(f"{name}.clk", clock_freq_hz)
        self.objects: dict[str, SimObject] = {}
        #: Attached observers, in attach order.
        self.observers: list[Probe] = []
        self._probe: Optional[Probe] = None
        self._initialized = False

    def register(self, obj: SimObject) -> None:
        if obj.name in self.objects:
            raise ValueError(f"duplicate SimObject name '{obj.name}'")
        self.objects[obj.name] = obj
        # Late registrations join the bus as it stands.
        obj._probe = self._probe

    # -- instrumentation ------------------------------------------------------
    @property
    def probe(self) -> Optional[Probe]:
        """What observes this system: None, its one observer, or a fanout."""
        return self._probe

    def attach_probe(self, observer: Probe) -> Probe:
        """Put ``observer`` on every object's bus, including objects
        registered later; one recording ``sched`` also sees every fired
        event.  Detaching the last observer restores ``_probe is None``."""
        if observer in self.observers:
            raise ValueError(f"{observer!r} is already attached to {self.name}")
        self.observers.append(observer)
        self._rewire()
        return observer

    def detach_probe(self, observer: Probe) -> None:
        if observer in self.observers:
            self.observers.remove(observer)
            self._rewire()

    def _rewire(self) -> None:
        observers = self.observers
        probe = (ProbeFanout(observers) if len(observers) > 1
                 else observers[0] if observers else None)
        self._probe = probe
        for obj in self.objects.values():
            obj._probe = probe
        hook = None
        if probe is not None and probe.enabled("sched"):
            queue_name = self.eventq.name

            def hook(event, tick):
                probe.emit("sched", queue_name, event.name, tick)
        self.eventq.trace_hook = hook

    def __getitem__(self, name: str) -> SimObject:
        return self.objects[name]

    def init_all(self) -> None:
        for obj in self.objects.values():
            obj.init()
        self._initialized = True

    def run(self, max_tick: Optional[int] = None, max_events: Optional[int] = None,
            watchdog=None) -> str:
        """Initialise (once) and drain the event queue.

        ``watchdog`` (optional) monitors the run for deadlock/livelock/
        wall-clock overruns; see :meth:`EventQueue.run`.
        """
        if not self._initialized:
            self.init_all()
        return self.eventq.run(max_tick=max_tick, max_events=max_events,
                               watchdog=watchdog)

    @property
    def cur_tick(self) -> int:
        return self.eventq.cur_tick

    def dump_stats(self) -> dict:
        merged: dict = {}
        for obj in self.objects.values():
            merged.update(obj.stats.dump())
        return merged

    def stats_report(self) -> str:
        return format_stats(self.dump_stats(), title=self.name)

    def reset_stats(self) -> None:
        for obj in self.objects.values():
            obj.reset_stats()

    def reset(self) -> None:
        """Tear down run state so the system can be reused.

        Clears the event queue (pending events, current tick, any stale
        exit cause), resets every registered object, and re-arms
        :meth:`init_all` for the next :meth:`run`.
        """
        self.eventq.reset()
        for obj in self.objects.values():
            obj.reset()
        self._initialized = False
