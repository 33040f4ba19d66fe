"""Stream buffer: an AXI-Stream-like FIFO channel.

Connects a producer device to a consumer device with a two-way
handshake: pushes fail when the FIFO is full, pops fail when it is
empty, and each side can register a callback to be notified when space
or data becomes available.  A callback waits at most once per side, so
a blocked endpoint is woken once per notification and the stall counts
are refused attempts.  This is the primitive behind the paper's
third CNN scenario (direct accelerator-to-accelerator pipelining,
Fig. 16c), which trace-based simulators cannot express.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from repro.sim.clock import ClockDomain
from repro.sim.simobject import SimObject, System


class StreamBuffer(SimObject):
    def __init__(
        self,
        name: str,
        system: System,
        capacity_tokens: int = 16,
        token_bytes: int = 8,
        clock: Optional[ClockDomain] = None,
    ) -> None:
        super().__init__(name, system, clock)
        if capacity_tokens <= 0:
            raise ValueError("stream buffer capacity must be positive")
        self.capacity = capacity_tokens
        self.token_bytes = token_bytes
        self._fifo: deque[bytes] = deque()
        self._space_waiters: list[Callable[[], None]] = []
        self._data_waiters: list[Callable[[], None]] = []
        self.stat_pushes = self.stats.scalar("pushes")
        self.stat_pops = self.stats.scalar("pops")
        self.stat_push_stalls = self.stats.scalar("push_stalls")
        self.stat_pop_stalls = self.stats.scalar("pop_stalls")
        self.stat_max_occupancy = self.stats.scalar("max_occupancy")

    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        return len(self._fifo)

    @property
    def full(self) -> bool:
        return len(self._fifo) >= self.capacity

    @property
    def empty(self) -> bool:
        return not self._fifo

    def try_push(self, token: bytes) -> bool:
        """Producer handshake: returns False (and records a stall) if full."""
        if len(token) != self.token_bytes:
            raise ValueError(
                f"{self.name}: token of {len(token)}B != configured {self.token_bytes}B"
            )
        if self.full:
            self.stat_push_stalls.inc()
            if self._probe is not None:
                self.trace_emit("mem", "push_stall", args={"occupancy": len(self._fifo)})
            return False
        self._fifo.append(bytes(token))
        self.stat_pushes.inc()
        if len(self._fifo) > self.stat_max_occupancy.value():
            self.stat_max_occupancy.set(len(self._fifo))
        self._notify(self._data_waiters)
        return True

    def try_pop(self) -> Optional[bytes]:
        """Consumer handshake: returns None (and records a stall) if empty."""
        if self.empty:
            self.stat_pop_stalls.inc()
            if self._probe is not None:
                self.trace_emit("mem", "pop_stall", args={"occupancy": 0})
            return None
        token = self._fifo.popleft()
        self.stat_pops.inc()
        self._notify(self._space_waiters)
        return token

    def on_space(self, callback: Callable[[], None]) -> None:
        """Notify ``callback`` once when space becomes available (a
        callback already waiting for space is not added again)."""
        if callback not in self._space_waiters:
            self._space_waiters.append(callback)

    def on_data(self, callback: Callable[[], None]) -> None:
        """Notify ``callback`` once when a token becomes available (a
        callback already waiting for data is not added again)."""
        if callback not in self._data_waiters:
            self._data_waiters.append(callback)

    def _notify(self, waiters: list[Callable[[], None]]) -> None:
        if not waiters:
            return
        pending, waiters[:] = list(waiters), []
        for callback in pending:
            # Deliver on the next clock edge (handshake takes a cycle).
            self.eventq.schedule_callback(
                callback, self.clock_edge(1), name=f"{self.name}.notify"
            )
