"""Memory packets.

A :class:`Packet` is the unit of communication on ports: a command
(read/write), an address range, and — for functional correctness — the
actual data bytes.  Packets carry an opaque ``origin`` so the requester
can match responses to outstanding operations; as in gem5, a request
becomes its own response (:meth:`Packet.make_response`).
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Optional

_packet_ids = itertools.count()


class MemCmd(enum.Enum):
    READ = "read"
    WRITE = "write"
    READ_RESP = "read_resp"
    WRITE_RESP = "write_resp"

    def __init__(self, value: str) -> None:
        # Plain attributes, fixed once per command: the per-access paths
        # read them without a property call or a membership test.
        self.is_request = not value.endswith("_resp")
        self.is_read = value.startswith("read")
        self.is_write = value.startswith("write")


class Packet:
    """A memory request or response."""

    __slots__ = (
        "cmd",
        "addr",
        "size",
        "data",
        "origin",
        "agent",
        "pkt_id",
        "req_tick",
        "resp_tick",
    )

    def __init__(
        self,
        cmd: MemCmd,
        addr: int,
        size: int,
        data: Optional[bytes] = None,
        origin: Any = None,
        agent: Optional[str] = None,
    ) -> None:
        if size <= 0:
            raise ValueError(f"packet size must be positive, got {size}")
        if cmd.is_write and cmd.is_request and (data is None or len(data) != size):
            raise ValueError("write request must carry data of exactly `size` bytes")
        self.cmd = cmd
        self.addr = addr
        self.size = size
        self.data = data
        self.origin = origin
        # Identity of the requesting agent (host, a DMA engine, an
        # accelerator's memory controller) for access attribution —
        # consumed by the runtime sanitizer; None on internal traffic
        # like cache fills, which proxy an already-recorded access.
        self.agent = agent
        self.pkt_id = next(_packet_ids)
        self.req_tick: int = -1
        self.resp_tick: int = -1

    # ------------------------------------------------------------------
    @property
    def is_request(self) -> bool:
        return self.cmd.is_request

    @property
    def is_read(self) -> bool:
        return self.cmd.is_read

    @property
    def is_write(self) -> bool:
        return self.cmd.is_write

    def make_response(self, data: Optional[bytes] = None) -> "Packet":
        """Turn this request into its response, in place (gem5's
        ``makeResponse``): id, origin, agent and request tick stay, the
        command becomes the response command and ``data`` the payload
        (None for a write).  Returns the packet."""
        cmd = self.cmd
        if cmd is MemCmd.READ:
            if data is None:
                raise ValueError("read response must carry data")
            self.cmd = MemCmd.READ_RESP
        elif cmd is MemCmd.WRITE:
            self.cmd = MemCmd.WRITE_RESP
        else:
            raise ValueError(f"{cmd} has no response command")
        self.data = data
        return self

    def overlaps(self, addr: int, size: int) -> bool:
        return self.addr < addr + size and addr < self.addr + self.size

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Packet #{self.pkt_id} {self.cmd.value} "
            f"addr={self.addr:#x} size={self.size}>"
        )


def read_packet(
    addr: int, size: int, origin: Any = None, agent: Optional[str] = None
) -> Packet:
    return Packet(MemCmd.READ, addr, size, origin=origin, agent=agent)


def write_packet(
    addr: int, data: bytes, origin: Any = None, agent: Optional[str] = None
) -> Packet:
    return Packet(MemCmd.WRITE, addr, len(data), data=bytes(data), origin=origin, agent=agent)
