"""Crossbar interconnect.

Routes request packets from any attached master-facing slave port to
the slave whose address range contains the request, and routes the
response back to the originating requester.  Models a fixed traversal
latency plus per-output-port serialization (one packet per output port
per cycle), which is where shared-resource contention in accelerator
clusters becomes visible.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.clock import ClockDomain
from repro.sim.packet import Packet
from repro.sim.ports import MasterPort, PortError, SlavePort
from repro.sim.simobject import AddrRange, SimObject, System


class Crossbar(SimObject):
    def __init__(
        self,
        name: str,
        system: System,
        latency_cycles: int = 1,
        width_bytes: int = 8,
        clock: Optional[ClockDomain] = None,
    ) -> None:
        super().__init__(name, system, clock)
        self.latency_cycles = latency_cycles
        self.width_bytes = width_bytes
        self.slave_ports: list[SlavePort] = []   # face upstream masters
        self.master_ports: list[tuple[AddrRange, MasterPort]] = []  # face downstream slaves
        self._route_back: dict[int, SlavePort] = {}
        self._out_busy: dict[int, int] = {}  # master port index -> busy-until tick
        self.stat_requests = self.stats.scalar("requests")
        self.stat_responses = self.stats.scalar("responses")

    # -- wiring -------------------------------------------------------------
    def slave_port(self, label: str = "") -> SlavePort:
        """Create a new upstream-facing port (masters connect here)."""
        port = SlavePort(
            f"{self.name}.slave{label or len(self.slave_ports)}",
            recv_timing_req=lambda pkt: self._recv_timing_req(pkt, port),
            recv_functional=self._recv_functional,
            owner=self,
        )
        self.slave_ports.append(port)
        return port

    def attach_slave(self, slave: SlavePort, addr_range: AddrRange, label: str = "") -> None:
        """Attach a downstream device covering ``addr_range``."""
        for existing_range, __ in self.master_ports:
            if existing_range.overlaps(addr_range):
                raise PortError(
                    f"{self.name}: range {addr_range} overlaps {existing_range}"
                )
        port = MasterPort(
            f"{self.name}.master{label or len(self.master_ports)}",
            recv_timing_resp=self._recv_timing_resp,
            owner=self,
        )
        port.bind(slave)
        self.master_ports.append((addr_range, port))

    def _route(self, addr: int, size: int) -> tuple[int, MasterPort]:
        for index, (addr_range, port) in enumerate(self.master_ports):
            if addr_range.contains(addr, size):
                return index, port
        raise PortError(f"{self.name}: no route for address {addr:#x} (+{size})")

    # -- functional -------------------------------------------------------------
    def _recv_functional(self, pkt: Packet) -> Packet:
        __, port = self._route(pkt.addr, pkt.size)
        return port.send_functional(pkt)

    # -- timing ---------------------------------------------------------------------
    def _recv_timing_req(self, pkt: Packet, source: SlavePort) -> bool:
        index, out_port = self._route(pkt.addr, pkt.size)
        self.stat_requests.inc()
        if self._probe is not None:
            self.trace_emit(
                "mem", "route",
                args={"addr": pkt.addr, "size": pkt.size, "out": index},
            )
        self._route_back[pkt.pkt_id] = source
        transfer_cycles = max(1, -(-pkt.size // self.width_bytes))
        earliest = self.clock_edge(self.latency_cycles)
        start = max(earliest, self._out_busy.get(index, 0))
        self._out_busy[index] = start + self.clock.cycles_to_ticks(transfer_cycles)
        self.eventq.schedule_callback(
            lambda p=pkt, port=out_port: self._forward(p, port),
            start,
            name=f"{self.name}.fwd",
        )
        return True

    def _forward(self, pkt: Packet, port: MasterPort) -> None:
        if not port.send_timing_req(pkt):
            # Downstream backpressure: retry next cycle.
            self.eventq.schedule_callback(
                lambda p=pkt, pt=port: self._forward(p, pt),
                self.clock_edge(1),
                name=f"{self.name}.retry",
            )

    def _recv_timing_resp(self, pkt: Packet) -> None:
        self.stat_responses.inc()
        source = self._route_back.pop(pkt.pkt_id, None)
        if source is None:
            raise PortError(f"{self.name}: orphan response {pkt}")
        self.eventq.schedule_callback(
            lambda p=pkt, port=source: port.send_timing_resp(p),
            self.clock_edge(self.latency_cycles),
            name=f"{self.name}.resp",
        )
