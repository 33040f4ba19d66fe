"""DMA engines.

:class:`BlockDMA` copies a contiguous region between two addresses in
burst-sized chunks over its master port (reads then writes, with a
configurable number of outstanding bursts).  :class:`StreamDMA` bridges
memory and a :class:`StreamBuffer` in either direction.  Both raise a
completion callback (wired to an interrupt line or a host waiter by the
system builder), and both are programmable through MMRs via the
CommInterface, like gem5-SALAM's DMA devices.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from repro.mem.stream_buffer import StreamBuffer
from repro.sim.clock import ClockDomain
from repro.sim.packet import Packet, read_packet, write_packet
from repro.sim.ports import MasterPort
from repro.sim.simobject import SimObject, System


class DMAError(RuntimeError):
    pass


class TransferRecord:
    """One programmed DMA transfer with timing/kind provenance.

    Iterates as the historical ``(src, dst, size)`` 3-tuple so existing
    consumers that unpack transfer-log entries keep working.
    """

    __slots__ = ("src", "dst", "size", "start_tick", "end_tick",
                 "direction", "engine")

    def __init__(self, src: int, dst: int, size: int, start_tick: int,
                 direction: str, engine: str) -> None:
        self.src = src
        self.dst = dst
        self.size = size
        self.start_tick = start_tick
        self.end_tick = -1  # set when the transfer completes
        self.direction = direction
        self.engine = engine

    def __iter__(self):
        return iter((self.src, self.dst, self.size))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<TransferRecord {self.engine} {self.direction} "
                f"src={self.src:#x} dst={self.dst:#x} size={self.size} "
                f"ticks=[{self.start_tick}, {self.end_tick}]>")


class BlockDMA(SimObject):
    """Burst-based memory-to-memory copy engine."""

    def __init__(
        self,
        name: str,
        system: System,
        burst_bytes: int = 64,
        max_outstanding: int = 4,
        clock: Optional[ClockDomain] = None,
    ) -> None:
        super().__init__(name, system, clock)
        self.burst_bytes = burst_bytes
        self.max_outstanding = max_outstanding
        self.port = MasterPort(
            f"{name}.port", recv_timing_resp=self._recv_timing_resp, owner=self
        )
        self._busy = False
        self._read_queue: deque[tuple[int, int, int]] = deque()  # (src, dst, size)
        self._inflight = 0
        self._remaining_writes = 0
        self._on_done: Optional[Callable[[], None]] = None
        self._xfer_start_tick = -1
        self._xfer_args: Optional[dict] = None
        self._xfer_record: Optional[TransferRecord] = None
        #: Every programmed transfer as a TransferRecord (iterable as the
        #: historical (src, dst, size) 3-tuple) — consumed by the system
        #: lints (`repro.analysis.syslint.describe_soc`).
        self.transfer_log: list[TransferRecord] = []
        self.stat_transfers = self.stats.scalar("transfers")
        self.stat_bytes = self.stats.scalar("bytes")

    @property
    def busy(self) -> bool:
        return self._busy

    def start(
        self,
        src: int,
        dst: int,
        size: int,
        on_done: Optional[Callable[[], None]] = None,
    ) -> None:
        """Program and launch a copy of ``size`` bytes from src to dst."""
        if self._busy:
            raise DMAError(f"{self.name}: transfer already in progress")
        if size <= 0:
            raise ValueError("DMA size must be positive")
        self._busy = True
        self._on_done = on_done
        self._remaining_writes = 0
        offset = 0
        while offset < size:
            chunk = min(self.burst_bytes, size - offset)
            self._read_queue.append((src + offset, dst + offset, chunk))
            self._remaining_writes += 1
            offset += chunk
        self._xfer_record = TransferRecord(
            src, dst, size, self.cur_tick, "mem_to_mem", "block")
        self.transfer_log.append(self._xfer_record)
        self.stat_transfers.inc()
        self.stat_bytes.inc(size)
        self._xfer_start_tick = self.cur_tick
        self._xfer_args = {"src": src, "dst": dst, "size": size}
        delay = 0
        probe = self._probe
        if probe is not None:
            self.trace_emit("dma", "start", args=self._xfer_args)
            # The command handoff orders this transfer after whoever
            # programmed the engine (the host's dma_copy releases the
            # matching key just before calling start()).
            probe.sync(self.name, ("cmd", self.name), False)
            action = probe.dma_action(self)
            if action is not None:
                kind, cycles = action
                if kind == "drop":
                    # Injected silent data loss: the transfer "completes"
                    # without moving a byte.
                    self._read_queue.clear()
                    self._remaining_writes = 0
                    self.schedule_callback_in_cycles(
                        self._complete_dropped, 1, name=f"{self.name}.dropped"
                    )
                    return
                delay = cycles
        self.schedule_callback_in_cycles(self._pump, 1 + delay, name=f"{self.name}.pump")

    def _complete_dropped(self) -> None:
        self._busy = False
        if self._xfer_record is not None:
            self._xfer_record.end_tick = self.cur_tick
        if self._probe is not None:
            self.trace_emit("dma", "dropped", args=self._xfer_args)
            self._probe.sync(self.name, ("done", self.name), True)
        if self._on_done is not None:
            done, self._on_done = self._on_done, None
            done()

    def _pump(self) -> None:
        while self._read_queue and self._inflight < self.max_outstanding:
            src, dst, chunk = self._read_queue.popleft()
            pkt = read_packet(src, chunk, origin=("dma_read", dst), agent=self.name)
            if not self.port.send_timing_req(pkt):
                self._read_queue.appendleft((src, dst, chunk))
                self.schedule_callback_in_cycles(self._pump, 1, name=f"{self.name}.pump")
                return
            self._inflight += 1

    def _recv_timing_resp(self, pkt: Packet) -> None:
        kind = pkt.origin[0] if isinstance(pkt.origin, tuple) else ""
        if kind == "dma_read":
            __, dst = pkt.origin
            write = write_packet(dst, pkt.data, origin=("dma_write",), agent=self.name)
            if not self.port.send_timing_req(write):
                # Retry the write next cycle; keep the burst in flight.
                self.schedule_callback_in_cycles(
                    lambda w=write: self._retry_write(w), 1, name=f"{self.name}.wretry"
                )
            return
        if kind == "dma_write":
            self._inflight -= 1
            self._remaining_writes -= 1
            if self._read_queue:
                self._pump()
            if self._remaining_writes == 0 and not self._read_queue:
                self._busy = False
                if self._xfer_record is not None:
                    self._xfer_record.end_tick = self.cur_tick
                probe = self._probe
                if probe is not None:
                    # The whole copy as one span, programmed -> last write.
                    probe.emit("dma", self.name, "transfer", self._xfer_start_tick,
                               dur=self.cur_tick - self._xfer_start_tick,
                               args=self._xfer_args)
                    # Publish completion before the done callback so the
                    # waiter's acquire observes every byte this engine
                    # moved.
                    probe.sync(self.name, ("done", self.name), True)
                if self._on_done is not None:
                    done, self._on_done = self._on_done, None
                    done()

    def _retry_write(self, pkt: Packet) -> None:
        if not self.port.send_timing_req(pkt):
            self.schedule_callback_in_cycles(
                lambda w=pkt: self._retry_write(w), 1, name=f"{self.name}.wretry"
            )


class StreamDMA(SimObject):
    """Bridges memory and a stream buffer.

    ``direction='mem_to_stream'`` reads memory in bursts and pushes the
    tokens into the buffer; ``'stream_to_mem'`` pops tokens, accumulates
    them into bursts, and writes them out.  Burst transfers amortize
    memory latency exactly like an AXI stream data mover.  Used to
    feed/drain accelerator pipelines (Fig. 16c).
    """

    def __init__(
        self,
        name: str,
        system: System,
        buffer: StreamBuffer,
        direction: str,
        burst_tokens: int = 8,
        clock: Optional[ClockDomain] = None,
    ) -> None:
        super().__init__(name, system, clock)
        if direction not in ("mem_to_stream", "stream_to_mem"):
            raise ValueError(f"bad stream DMA direction '{direction}'")
        if burst_tokens < 1:
            raise ValueError("burst_tokens must be >= 1")
        self.buffer = buffer
        self.direction = direction
        self.burst_tokens = burst_tokens
        self._held_tokens: list[bytes] = []  # burst read awaiting pushes
        self._out_burst = bytearray()        # tokens awaiting a burst write
        self.port = MasterPort(
            f"{name}.port", recv_timing_resp=self._recv_timing_resp, owner=self
        )
        self._busy = False
        self._addr = 0
        self._remaining = 0
        self._waiting_mem = False
        self._on_done: Optional[Callable[[], None]] = None
        self._xfer_start_tick = -1
        self._xfer_args: Optional[dict] = None
        self._xfer_record: Optional[TransferRecord] = None
        #: TransferRecord per transfer (iterable as (src, dst, size)); a
        #: stream DMA only touches one memory address, so src == dst ==
        #: the programmed base.
        self.transfer_log: list[TransferRecord] = []
        self.stat_tokens = self.stats.scalar("tokens")

    @property
    def busy(self) -> bool:
        return self._busy

    def start(self, addr: int, tokens: int, on_done: Optional[Callable[[], None]] = None) -> None:
        if self._busy:
            raise DMAError(f"{self.name}: transfer already in progress")
        self._busy = True
        self._addr = addr
        self._remaining = tokens
        self._on_done = on_done
        self._xfer_record = TransferRecord(
            addr, addr, tokens * self.buffer.token_bytes,
            self.cur_tick, self.direction, "stream")
        self.transfer_log.append(self._xfer_record)
        self._xfer_start_tick = self.cur_tick
        self._xfer_args = {"addr": addr, "tokens": tokens,
                           "direction": self.direction}
        if self._probe is not None:
            self.trace_emit("dma", "start", args=self._xfer_args)
            self._probe.sync(self.name, ("cmd", self.name), False)
        self.schedule_callback_in_cycles(self._step, 1, name=f"{self.name}.step")

    def _finish_if_done(self) -> bool:
        if self.direction == "mem_to_stream" and self._held_tokens:
            return False
        if self._remaining == 0 and not self._waiting_mem:
            self._busy = False
            if self._xfer_record is not None:
                self._xfer_record.end_tick = self.cur_tick
            probe = self._probe
            if probe is not None:
                probe.emit("dma", self.name, "stream", self._xfer_start_tick,
                           dur=self.cur_tick - self._xfer_start_tick,
                           args=self._xfer_args)
                probe.sync(self.name, ("done", self.name), True)
            if self._on_done is not None:
                done, self._on_done = self._on_done, None
                done()
            return True
        return False

    def _step(self) -> None:
        if self._finish_if_done():
            return
        token_bytes = self.buffer.token_bytes
        if self.direction == "mem_to_stream":
            # Drain any tokens already fetched before reading more.
            while self._held_tokens:
                if not self.buffer.try_push(self._held_tokens[0]):
                    self.buffer.on_space(self._step)
                    return
                self._held_tokens.pop(0)
                self._remaining -= 1
                self.stat_tokens.inc()
                if self._probe is not None:
                    # Token handoff: the consumer popping this token
                    # acquires the same key, ordering it after our reads.
                    self._probe.sync(self.name, ("stream", self.buffer.name), True)
            if self._finish_if_done():
                return
            if self._waiting_mem:
                return
            count = min(self.burst_tokens, self._remaining)
            pkt = read_packet(self._addr, token_bytes * count,
                              origin="stream_read", agent=self.name)
            if self.port.send_timing_req(pkt):
                self._waiting_mem = True
            else:
                self.schedule_callback_in_cycles(self._step, 1, name=f"{self.name}.retry")
        else:
            if self._waiting_mem:
                return
            # Accumulate a full burst (or the final partial burst).
            while len(self._out_burst) < self.burst_tokens * token_bytes:
                token = self.buffer.try_pop()
                if token is None:
                    break
                if self._probe is not None:
                    self._probe.sync(self.name, ("stream", self.buffer.name), False)
                self._out_burst.extend(token)
                self._remaining -= 1
                self.stat_tokens.inc()
                if self._remaining == 0:
                    break
            burst_full = len(self._out_burst) >= self.burst_tokens * token_bytes
            if self._out_burst and (burst_full or self._remaining == 0):
                pkt = write_packet(self._addr, bytes(self._out_burst),
                                   origin="stream_write", agent=self.name)
                self._addr += len(self._out_burst)
                self._out_burst.clear()
                self._waiting_mem = True
                if not self.port.send_timing_req(pkt):
                    self.schedule_callback_in_cycles(
                        lambda w=pkt: self._retry_write(w), 1, name=f"{self.name}.wretry"
                    )
                return
            if self._remaining > 0:
                self.buffer.on_data(self._step)

    def _retry_write(self, pkt: Packet) -> None:
        if not self.port.send_timing_req(pkt):
            self.schedule_callback_in_cycles(
                lambda w=pkt: self._retry_write(w), 1, name=f"{self.name}.wretry"
            )

    def _recv_timing_resp(self, pkt: Packet) -> None:
        if pkt.origin == "stream_read":
            self._waiting_mem = False
            token_bytes = self.buffer.token_bytes
            self._addr += pkt.size
            self._held_tokens.extend(
                pkt.data[i : i + token_bytes] for i in range(0, pkt.size, token_bytes)
            )
            self.schedule_callback_in_cycles(self._step, 1, name=f"{self.name}.step")
        elif pkt.origin == "stream_write":
            if self._waiting_mem:
                self._waiting_mem = False
                self.schedule_callback_in_cycles(self._step, 1, name=f"{self.name}.step")
