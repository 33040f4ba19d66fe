"""Stream port: memory-mapped window onto a stream buffer.

Lets an accelerator's ordinary loads/stores speak the AXI-Stream-style
handshake: a read of the window pops the next token (stalling, i.e.
withholding the response, while the FIFO is empty); a write pushes a
token (stalling while it is full).  Requests are serviced strictly in
arrival order, preserving stream semantics even with multiple
outstanding accesses: while the FIFO refuses, the port waits on it
once, and each wake runs one drain over every queued request.
"""

from __future__ import annotations

from collections import deque

from repro.mem.stream_buffer import StreamBuffer
from repro.sim.packet import MemCmd, Packet
from repro.sim.ports import SlavePort
from repro.sim.simobject import AddrRange, SimObject, System


class StreamPort(SimObject):
    def __init__(
        self,
        name: str,
        system: System,
        buffer: StreamBuffer,
        base: int,
        clock=None,
    ) -> None:
        super().__init__(name, system, clock)
        self.buffer = buffer
        self.range = AddrRange(base, max(8, buffer.token_bytes))
        self.port = SlavePort(
            f"{name}.port",
            recv_timing_req=self._recv_timing_req,
            recv_functional=self._recv_functional,
            owner=self,
        )
        self._readers: deque[Packet] = deque()
        self._writers: deque[Packet] = deque()
        self.stat_reads = self.stats.scalar("pops")
        self.stat_writes = self.stats.scalar("pushes")

    # Functional access makes no sense for a stream; expose zeroes so
    # debug tooling does not crash.
    def _recv_functional(self, pkt: Packet) -> Packet:
        if pkt.cmd is MemCmd.READ:
            return pkt.make_response(data=bytes(pkt.size))
        return pkt.make_response()

    def _recv_timing_req(self, pkt: Packet) -> bool:
        if pkt.size != self.buffer.token_bytes:
            raise ValueError(
                f"{self.name}: stream access must be token-sized "
                f"({self.buffer.token_bytes}B), got {pkt.size}B"
            )
        if pkt.is_read:
            self._readers.append(pkt)
            self._drain_reads()
        else:
            self._writers.append(pkt)
            self._drain_writes()
        return True

    # -- pops ---------------------------------------------------------------
    def _drain_reads(self) -> None:
        while self._readers:
            token = self.buffer.try_pop()
            if token is None:
                self.buffer.on_data(self._drain_reads)
                return
            pkt = self._readers.popleft()
            self.stat_reads.inc()
            if self._probe is not None and pkt.agent is not None:
                # Popping a token is the acquire half of the FIFO
                # handoff: the popper inherits everything the pusher
                # published.
                self._probe.sync(pkt.agent, ("stream", self.buffer.name), False)
            resp = pkt.make_response(data=token)
            self.eventq.schedule_callback(
                lambda r=resp: self.port.send_timing_resp(r),
                self.clock_edge(1),
                name=f"{self.name}.pop",
            )

    # -- pushes ----------------------------------------------------------------
    def _drain_writes(self) -> None:
        while self._writers:
            if not self.buffer.try_push(self._writers[0].data):
                self.buffer.on_space(self._drain_writes)
                return
            pkt = self._writers.popleft()
            self.stat_writes.inc()
            if self._probe is not None and pkt.agent is not None:
                self._probe.sync(pkt.agent, ("stream", self.buffer.name), True)
            resp = pkt.make_response()
            self.eventq.schedule_callback(
                lambda r=resp: self.port.send_timing_resp(r),
                self.clock_edge(1),
                name=f"{self.name}.push",
            )
