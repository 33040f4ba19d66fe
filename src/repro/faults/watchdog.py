"""Hang detection for simulation runs, on either engine.

`SimWatchdog` plugs into ``EventQueue.run(watchdog=...)`` (duck-typed:
``begin`` / ``check`` / ``on_drain`` / ``interval``) and raises a
structured :class:`~repro.sim.eventq.SimulationHang` instead of letting
a broken configuration hang the process or exit silently:

* **deadlock** — the event queue drained while a runtime engine still
  reports in-flight work (a lost memory completion, a dropped wakeup).
* **livelock** — events keep firing but no instruction has committed
  for ``livelock_cycles`` engine cycles (a stalled port, an
  unsatisfiable dependence).
* **wallclock** — the run exceeded ``wall_clock_s`` seconds of host
  time (the per-point timeout of hardened sweeps).

Checks are batched every ``interval`` fired events, so an unwatched
hot loop pays nothing and a watched one pays ~1/interval of a clock
read.  The graph engine's cycle loop runs many cycles inside one event,
so it also calls ``check`` itself every ``interval`` cycles, keeping its
engine's ``running`` and ``committed`` current (see
`repro.engine.scheduler`); the watchdog reads the same fields on both
engines.  The one hang class this cannot catch is a non-yielding
infinite loop *inside any other single event callback*.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence, Union

from repro.sim.eventq import EventQueue, SimulationHang
from repro.sim.simobject import System


class SimWatchdog:
    """Deadlock / livelock / wall-clock monitor for one event-loop run."""

    #: Default commit-progress budget, in engine cycles.  Far above any
    #: legitimate inter-commit gap of the bundled workloads, far below
    #: "the process looks hung".
    DEFAULT_LIVELOCK_CYCLES = 50_000

    def __init__(
        self,
        engines: Optional[Sequence] = None,
        livelock_cycles: Optional[int] = DEFAULT_LIVELOCK_CYCLES,
        wall_clock_s: Optional[float] = None,
        interval: int = 256,
    ) -> None:
        self.engines = list(engines or [])
        self.livelock_cycles = livelock_cycles
        self.wall_clock_s = wall_clock_s
        self.interval = interval
        self._deadline: Optional[float] = None
        self._last_committed = -1
        self._last_commit_tick = 0

    def bind_system(self, system: System) -> "SimWatchdog":
        """Monitor every `RuntimeEngine` registered in ``system``."""
        from repro.core.runtime import RuntimeEngine

        self.engines = [obj for obj in system.objects.values()
                        if isinstance(obj, RuntimeEngine)]
        return self

    # -- EventQueue.run protocol -------------------------------------------
    def begin(self, queue: EventQueue) -> None:
        if self.wall_clock_s is not None:
            self._deadline = time.monotonic() + self.wall_clock_s
        self._last_committed = self._total_committed()
        self._last_commit_tick = queue.cur_tick

    def check(self, queue: EventQueue) -> None:
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise SimulationHang(
                "wallclock", queue.cur_tick, self._dump(),
                f"exceeded the wall-clock budget of {self.wall_clock_s}s",
            )
        if self.livelock_cycles is None or not self.engines:
            return
        committed = self._total_committed()
        if committed != self._last_committed:
            self._last_committed = committed
            self._last_commit_tick = queue.cur_tick
            return
        running = self._running_engines()
        if not running:
            # Nothing executing (e.g. a host-only phase): progress is
            # whatever the event queue is doing; restart the window.
            self._last_commit_tick = queue.cur_tick
            return
        elapsed = queue.cur_tick - self._last_commit_tick
        for engine in running:
            if elapsed > engine.clock.cycles_to_ticks(self.livelock_cycles):
                raise SimulationHang(
                    "livelock", queue.cur_tick, self._dump(),
                    f"no instruction commit for more than "
                    f"{self.livelock_cycles} cycles "
                    f"({len(running)} engine(s) still running)",
                )

    def on_drain(self, queue: EventQueue) -> None:
        running = self._running_engines()
        if running:
            raise SimulationHang(
                "deadlock", queue.cur_tick, self._dump(),
                "event queue drained while engines report in-flight work: "
                + "; ".join(engine.inflight_summary() for engine in running),
            )

    # -- internals ----------------------------------------------------------
    def _total_committed(self) -> int:
        return sum(getattr(engine, "committed", 0) for engine in self.engines)

    def _running_engines(self) -> list:
        return [engine for engine in self.engines
                if getattr(engine, "running", False)]

    def _dump(self) -> list[str]:
        lines: list[str] = []
        for engine in self._running_engines():
            lines.append(engine.inflight_summary())
            lines.extend(engine.inflight_dump())
        return lines

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<SimWatchdog engines={len(self.engines)} "
                f"livelock={self.livelock_cycles} wall={self.wall_clock_s}>")


def coerce_watchdog(value: Union[SimWatchdog, dict, bool, int, float, None],
                    system: Optional[System] = None) -> Optional[SimWatchdog]:
    """Normalize the accepted watchdog specs.

    ``None``/``False`` -> no watchdog; ``True`` -> defaults; an int ->
    a livelock budget in cycles; a dict -> `SimWatchdog` kwargs; an
    instance passes through.  Any form that arrives without engines is
    bound to ``system`` (specs stay picklable — `ParallelSweep` ships
    them to workers and binds in the worker).  To watch a new system
    with an instance that is already bound, coerce its `watchdog_spec`.
    """
    if value is None or value is False:
        return None
    if isinstance(value, SimWatchdog):
        watchdog = value
    elif value is True:
        watchdog = SimWatchdog()
    elif isinstance(value, (int, float)):
        watchdog = SimWatchdog(livelock_cycles=int(value))
    elif isinstance(value, dict):
        watchdog = SimWatchdog(**value)
    else:
        raise TypeError(
            f"cannot build a SimWatchdog from {type(value).__name__!r}"
        )
    if not watchdog.engines and system is not None:
        watchdog.bind_system(system)
    return watchdog


def watchdog_spec(value: Union[SimWatchdog, dict, bool, int, float, None]):
    """Reduce any watchdog form to a picklable spec (for process pools)."""
    if isinstance(value, SimWatchdog):
        return {
            "livelock_cycles": value.livelock_cycles,
            "wall_clock_s": value.wall_clock_s,
            "interval": value.interval,
        }
    return value
