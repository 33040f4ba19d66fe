"""The instrumentation bus: one observer protocol for every hook site.

Every `SimObject` carries one ``_probe`` attribute, set by
`System.attach_probe` / `detach_probe`: None when nothing observes the
run (a hook site then pays one pointer compare), the observer itself
when one is attached, a `ProbeFanout` when several are.  `TraceHub`,
`FaultInjector` and `AccessSanitizer` subclass :class:`Probe`.

`Timings` is the one wall-clock mechanism beside it: the build stages,
the passes and the analysis rules each time their work in a span, and
a span can report itself to a probe's channel.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Hashable, Optional


class Probe:
    """Observer protocol; every call defaults to a no-op."""

    def enabled(self, channel: str) -> bool:
        """True when :meth:`emit` records ``channel``."""
        return False

    def emit(self, channel: str, source: str, kind: str, tick: int,
             dur: int = 0, args: Optional[dict] = None) -> None:
        """A timestamped event on a trace channel."""

    def access(self, obj, agent: Optional[str], addr: int, size: int,
               is_write: bool, tick: int) -> None:
        """One memory access.  ``obj`` is the timing model that received
        it (None for a functional access, e.g. ideal memory); ``agent``
        is the attributed requester (None for unattributed traffic)."""

    def sync(self, agent: str, key: Hashable, release: bool) -> None:
        """One half of a handoff on ``key``: ``release`` publishes
        ``agent``'s history, otherwise ``agent`` acquires it."""

    def stalled(self, obj) -> bool:
        """True while ``obj``'s ports must not issue."""
        return False

    def drop_request(self, obj, request) -> bool:
        """True when ``obj`` must forget ``request`` (it never completes)."""
        return False

    def dma_action(self, obj) -> Optional[tuple[str, int]]:
        """At DMA launch: a ("drop"|"delay", cycles) action, or None."""
        return None


#: The per-access hooks the graph scheduler's inline memory model never calls.
_MEMORY_HOOKS = ("access", "stalled", "drop_request")


def watches_memory(observer: Probe) -> bool:
    """True when ``observer``'s class overrides a per-access hook, so a
    run it observes must drive memory through the real ports."""
    cls = type(observer)
    return any(getattr(cls, hook) is not getattr(Probe, hook)
               for hook in _MEMORY_HOOKS)


class ProbeFanout(Probe):
    """Forwards every call to several observers, in attach order."""

    def __init__(self, observers) -> None:
        self.observers = tuple(observers)

    def enabled(self, channel):
        return any(obs.enabled(channel) for obs in self.observers)

    def emit(self, channel, source, kind, tick, dur=0, args=None):
        for obs in self.observers:
            obs.emit(channel, source, kind, tick, dur, args)

    def access(self, obj, agent, addr, size, is_write, tick):
        for obs in self.observers:
            obs.access(obj, agent, addr, size, is_write, tick)

    def sync(self, agent, key, release):
        for obs in self.observers:
            obs.sync(agent, key, release)

    # Every observer sees an intercept (each may count or expire state)
    # before the answers combine, hence lists rather than generators.
    def stalled(self, obj):
        return any([obs.stalled(obj) for obs in self.observers])

    def drop_request(self, obj, request):
        return any([obs.drop_request(obj, request) for obs in self.observers])

    def dma_action(self, obj):
        actions = [obs.dma_action(obj) for obs in self.observers]
        return next((action for action in actions if action is not None), None)


class Timings(dict):
    """Name -> summed wall-clock seconds of every :meth:`span` so named.

    Given a ``probe``, a finished span also emits one ``channel`` event
    from ``source`` (kind: the span's name, tick 0) whose args are the
    span's detail plus its rounded ``seconds``.
    """

    def __init__(self, probe: Optional[Probe] = None, channel: str = "",
                 source: str = "") -> None:
        super().__init__()
        self.probe = probe
        self.channel = channel
        self.source = source

    @contextmanager
    def span(self, name: str, /, **detail):
        """Time the ``with`` body; a body that raises records nothing."""
        start = perf_counter()
        yield
        seconds = perf_counter() - start
        self[name] = self.get(name, 0.0) + seconds
        probe = self.probe
        if probe is not None and probe.enabled(self.channel):
            probe.emit(self.channel, self.source, name, tick=0,
                       args=dict(detail, seconds=round(seconds, 6)))

    def merge(self, other: dict) -> None:
        """Add ``other``'s seconds name by name."""
        for name, seconds in other.items():
            self[name] = self.get(name, 0.0) + seconds
