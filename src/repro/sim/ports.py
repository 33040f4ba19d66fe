"""Master/slave port pairs, gem5-style.

A :class:`MasterPort` is bound to exactly one :class:`SlavePort`.  Timing
requests flow master→slave and may be refused (backpressure); the slave
then owes the master a retry notification.  Responses flow slave→master
and are always accepted.  Functional accesses complete immediately and
are used for debugging and for host-initiated data movement that is
accounted for separately.

Owners implement the protocol by passing callbacks at construction:

* slave owner: ``recv_timing_req(pkt) -> bool`` and optionally
  ``recv_functional(pkt) -> Packet``
* master owner: ``recv_timing_resp(pkt) -> None`` and optionally
  ``recv_retry() -> None``
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.packet import Packet


class PortError(RuntimeError):
    """Raised on port protocol violations (unbound ports, bad packets)."""


class _Port:
    def __init__(self, name: str, owner=None) -> None:
        self.name = name
        self.owner = owner
        self.peer: Optional[_Port] = None

    def is_bound(self) -> bool:
        return self.peer is not None

    def _require_peer(self) -> "_Port":
        if self.peer is None:
            raise PortError(f"port '{self.name}' is not bound")
        return self.peer

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        peer = self.peer.name if self.peer else "unbound"
        return f"<{type(self).__name__} {self.name} <-> {peer}>"


class MasterPort(_Port):
    """Requesting side of a port pair."""

    def __init__(
        self,
        name: str,
        recv_timing_resp: Callable[[Packet], None],
        recv_retry: Optional[Callable[[], None]] = None,
        owner=None,
    ) -> None:
        super().__init__(name, owner)
        self._recv_timing_resp = recv_timing_resp
        self._recv_retry = recv_retry
        self.reqs_sent = 0
        self.resps_received = 0
        self.retries = 0

    def bind(self, slave: "SlavePort") -> None:
        if self.peer is not None or slave.peer is not None:
            raise PortError(f"rebinding port '{self.name}' or '{slave.name}'")
        self.peer = slave
        slave.peer = self

    # master -> slave
    def send_timing_req(self, pkt: Packet) -> bool:
        if not pkt.cmd.is_request:
            raise PortError(f"send_timing_req called with non-request {pkt}")
        slave = self._require_peer()
        accepted = slave._recv_timing_req(pkt)
        if accepted:
            self.reqs_sent += 1
        return accepted

    def send_functional(self, pkt: Packet) -> Packet:
        slave = self._require_peer()
        if slave._recv_functional is None:
            raise PortError(f"slave '{slave.name}' has no functional path")
        return slave._recv_functional(pkt)

    # called by the slave side
    def _deliver_retry(self) -> None:
        self.retries += 1
        if self._recv_retry is not None:
            self._recv_retry()


class SlavePort(_Port):
    """Responding side of a port pair."""

    def __init__(
        self,
        name: str,
        recv_timing_req: Callable[[Packet], bool],
        recv_functional: Optional[Callable[[Packet], Packet]] = None,
        owner=None,
    ) -> None:
        super().__init__(name, owner)
        self._recv_timing_req = recv_timing_req
        self._recv_functional = recv_functional
        self.resps_sent = 0

    def bind(self, master: MasterPort) -> None:
        master.bind(self)

    # slave -> master
    def send_timing_resp(self, pkt: Packet) -> None:
        if pkt.cmd.is_request:
            raise PortError(f"send_timing_resp called with request {pkt}")
        master = self._require_peer()
        self.resps_sent += 1
        master.resps_received += 1
        master._recv_timing_resp(pkt)

    def send_retry(self) -> None:
        self._require_peer()._deliver_retry()


def connect(master: MasterPort, slave: SlavePort) -> None:
    """Bind a master/slave pair (readable wiring helper)."""
    master.bind(slave)
