"""GIC-like interrupt controller.

Devices raise numbered lines; waiters (the host agent, or another
accelerator's controller logic) register for a line and are called on
the next assertion.  Level semantics are simplified to edge events with
a pending latch, which is all the driver model needs.
"""

from __future__ import annotations

from typing import Callable

from repro.sim.simobject import SimObject, System


class _IrqLine:
    """A bound assertion callback that remembers its line number.

    Devices hold these as plain callables; the ``irq`` attribute lets
    introspection (the concurrency analysis, the access sanitizer) map
    a device back to the line it signals.
    """

    __slots__ = ("controller", "irq")

    def __init__(self, controller: "InterruptController", irq: int) -> None:
        self.controller = controller
        self.irq = irq

    def __call__(self) -> None:
        self.controller.raise_irq(self.irq)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<IrqLine {self.controller.name}.{self.irq}>"


class InterruptController(SimObject):
    def __init__(self, name: str, system: System, clock=None) -> None:
        super().__init__(name, system, clock)
        self._pending: set[int] = set()
        self._waiters: dict[int, list[Callable[[], None]]] = {}
        self.stat_raised = self.stats.vector("irqs_raised")

    def line(self, irq: int) -> Callable[[], None]:
        """A callback that asserts ``irq`` (bind this to a device)."""
        return _IrqLine(self, irq)

    def raise_irq(self, irq: int) -> None:
        self.stat_raised.inc(str(irq))
        waiters = self._waiters.pop(irq, [])
        if self._probe is not None:
            self.trace_emit(
                "irq", "raise", args={"irq": irq, "waiters": len(waiters)}
            )
        if not waiters:
            self._pending.add(irq)
            return
        for waiter in waiters:
            # Interrupt delivery takes one controller cycle.
            self.eventq.schedule_callback(
                waiter, self.clock_edge(1), name=f"{self.name}.irq{irq}"
            )

    def wait(self, irq: int, callback: Callable[[], None]) -> None:
        """Invoke ``callback`` when ``irq`` fires (immediately if pending)."""
        if irq in self._pending:
            self._pending.discard(irq)
            self.eventq.schedule_callback(
                callback, self.clock_edge(1), name=f"{self.name}.irq{irq}"
            )
            return
        self._waiters.setdefault(irq, []).append(callback)

    def clear(self, irq: int) -> None:
        self._pending.discard(irq)
