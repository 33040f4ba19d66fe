"""Communications Interface (Sec. III-D1, Fig. 5).

Provides an accelerator's window onto the system: memory-mapped
registers for control/status/arguments, master memory ports (routed
through the accelerator memory controller so SPM and cache can be
accessed in parallel), and an interrupt line.  Interfaces are
interchangeable without touching the Compute Unit — the decoupling the
paper contrasts against gem5-Aladdin and PARADE.
"""

from __future__ import annotations

import struct
from typing import Callable, Optional

from repro.core.config import DeviceConfig
from repro.core.mmr import CTRL_IRQ_EN, CTRL_START, MMRFile
from repro.ir.types import Type
from repro.mem.memctrl import AcceleratorMemController
from repro.sim.ports import MasterPort, SlavePort
from repro.sim.simobject import AddrRange, SimObject, System


class CommInterface(SimObject):
    """MMRs + memory master ports + interrupt line."""

    def __init__(
        self,
        name: str,
        system: System,
        mmr_base: int,
        config: Optional[DeviceConfig] = None,
        num_args: int = 8,
        clock=None,
    ) -> None:
        super().__init__(name, system, clock)
        config = config or DeviceConfig()
        # The agent identity shared by this interface and its memory
        # controller: the owning compute unit's name (comm interfaces
        # are conventionally named "<unit>.comm").
        self.agent = name[: -len(".comm")] if name.endswith(".comm") else name
        self.mmr = MMRFile(
            f"{name}.mmr",
            system,
            base=mmr_base,
            num_args=num_args,
            on_write=self._mmr_written,
            clock=clock,
        )
        self.memctrl = AcceleratorMemController(
            f"{name}.memctrl",
            system,
            read_ports=config.read_ports,
            write_ports=config.write_ports,
            ideal=config.ideal_memory,
            clock=clock,
            agent=self.agent,
        )
        self._on_start: Optional[Callable[[], None]] = None
        self._irq_handlers: list[Callable[[], None]] = []
        #: IRQ numbers this interface raises (recovered from connected
        #: controller lines) — lets the concurrency analysis map a host
        #: ``wait_irq(n)`` back to the accelerator that signals ``n``.
        self.irq_lines: list[int] = []
        self.stat_interrupts = self.stats.scalar("interrupts_raised")

    # -- wiring --------------------------------------------------------------
    def add_memory_route(
        self,
        addr_range: AddrRange,
        slave: SlavePort,
        label: str = "",
        strict: bool = False,
    ) -> MasterPort:
        """Route accesses in ``addr_range`` to ``slave`` (SPM port, cache
        cpu-side, or a crossbar slave port).

        ``strict`` marks a device region with strictly-ordered access
        semantics (stream windows): the runtime scheduler will never
        reorder same-address loads within it.
        """
        port = self.memctrl.add_route(addr_range, label)
        port.bind(slave)
        if strict:
            self.memctrl.add_strict_range(addr_range)
        return port

    def on_start(self, callback: Callable[[], None]) -> None:
        """Register the compute unit's launch hook."""
        self._on_start = callback

    def connect_irq(self, handler: Callable[[], None]) -> None:
        """Attach an interrupt destination (GIC line / host waiter)."""
        self._irq_handlers.append(handler)
        irq = getattr(handler, "irq", None)
        if irq is not None:
            self.irq_lines.append(irq)

    # -- control ----------------------------------------------------------------
    def _mmr_written(self, offset: int, value: int) -> None:
        if offset == 0 and value & CTRL_START and self._on_start is not None:
            if self._probe is not None:
                # The starter (host) released this key when its control
                # write landed; acquiring orders the launch after every
                # host access that preceded the start.
                self._probe.sync(self.agent, ("mmr", self.mmr.name), False)
            self._on_start()

    def raise_interrupt(self) -> None:
        if self.mmr.control & CTRL_IRQ_EN or not self._irq_handlers:
            self.stat_interrupts.inc()
        if self._probe is not None:
            # Publish the accelerator's finished work before any waiter
            # resumes on these lines.
            for irq in self.irq_lines:
                self._probe.sync(self.agent, ("irq", irq), True)
        for handler in self._irq_handlers:
            handler()

    # -- argument marshalling ------------------------------------------------------
    def read_arguments(self, arg_types: list[Type]) -> list:
        """Decode MMR argument registers per the kernel signature."""
        values = []
        for index, type_ in enumerate(arg_types):
            raw = self.mmr.arg(index)
            if type_.is_float:
                if type_.bit_width() == 64:
                    values.append(struct.unpack("<d", raw.to_bytes(8, "little"))[0])
                else:
                    values.append(
                        struct.unpack("<f", (raw & 0xFFFFFFFF).to_bytes(4, "little"))[0]
                    )
            elif type_.is_int:
                values.append(raw & type_.mask)
            else:  # pointer
                values.append(raw)
        return values

    @staticmethod
    def encode_argument(value, type_: Type) -> int:
        """Encode a python value into a 64-bit MMR payload."""
        if type_.is_float:
            if type_.bit_width() == 64:
                return int.from_bytes(struct.pack("<d", value), "little")
            return int.from_bytes(struct.pack("<f", value), "little")
        return int(value) & ((1 << 64) - 1)
