"""Host CPU driver agent.

Stands in for the ARM host of the paper's full-system simulations.  A
driver is a Python generator that yields operations; the agent executes
them with realistic timing: MMR reads/writes travel through the system
interconnect as timing packets, DMA launches program a real DMA engine,
``wait_irq`` blocks on the interrupt controller, and every operation
pays a configurable software overhead (driver instructions, register
marshalling) in host-clock cycles.

Example driver::

    def driver(h):
        yield h.write_mmr(acc_args + 0, src_ptr)
        yield h.write_mmr(acc_ctrl, CTRL_START | CTRL_IRQ_EN)
        yield h.wait_irq(0)
        value = yield h.read_mmr(acc_status)

This captures exactly the control/synchronization overhead that the
multi-accelerator scenarios of Fig. 16 trade away.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional

from repro.mem.dma import BlockDMA, StreamDMA
from repro.sim.packet import Packet, read_packet, write_packet
from repro.sim.ports import MasterPort
from repro.sim.simobject import SimObject, System
from repro.system.interrupts import InterruptController

DriverProgram = Generator[tuple, Any, None]


@dataclass
class _Op:
    kind: str
    payload: tuple


class HostAgent(SimObject):
    #: Default driver overhead per operation kind, in host cycles.
    #: Register pokes are cheap; anything involving an interrupt or the
    #: DMA driver pays the user/kernel round trip.
    DEFAULT_OP_OVERHEADS = {
        "write_mmr": 25,
        "read_mmr": 25,
        "wait_irq": 25,
        "dma_copy": 25,
        "start_stream": 25,
        "wait_stream": 25,
        "delay": 0,
        "memcpy": 25,
    }

    def __init__(
        self,
        name: str,
        system: System,
        irq_controller: Optional[InterruptController] = None,
        op_overhead_cycles: Optional[dict[str, int]] = None,
        clock=None,
    ) -> None:
        super().__init__(name, system, clock)
        self.irq_controller = irq_controller
        if isinstance(op_overhead_cycles, int):  # uniform legacy form
            self.op_overheads = {k: op_overhead_cycles for k in self.DEFAULT_OP_OVERHEADS}
        else:
            self.op_overheads = dict(self.DEFAULT_OP_OVERHEADS)
            self.op_overheads.update(op_overhead_cycles or {})
        self.port = MasterPort(
            f"{name}.port", recv_timing_resp=self._recv_timing_resp, owner=self
        )
        self._driver: Optional[DriverProgram] = None
        self._send_value: Any = None
        self._on_done: Optional[Callable[[], None]] = None
        self._finished = False
        #: Executed driver ops as (tick, kind, args) — the sequencing
        #: record the concurrency analysis replays to recover ordering
        #: edges (`repro.analysis.concurrency.describe_concurrency`).
        self.op_log: list[tuple[int, str, dict]] = []
        self.stat_ops = self.stats.scalar("driver_ops")
        self.stat_mmr_writes = self.stats.scalar("mmr_writes")
        self.stat_irq_waits = self.stats.scalar("irq_waits")
        self.finish_tick = -1

    # -- driver op constructors (used inside driver generators) ----------------
    @staticmethod
    def write_mmr(addr: int, value: int) -> tuple:
        return ("write_mmr", addr, value)

    @staticmethod
    def read_mmr(addr: int) -> tuple:
        return ("read_mmr", addr)

    @staticmethod
    def wait_irq(irq: int) -> tuple:
        return ("wait_irq", irq)

    @staticmethod
    def dma_copy(dma: BlockDMA, src: int, dst: int, size: int) -> tuple:
        return ("dma_copy", dma, src, dst, size)

    @staticmethod
    def start_stream(dma: StreamDMA, addr: int, tokens: int) -> tuple:
        return ("start_stream", dma, addr, tokens)

    @staticmethod
    def wait_stream(dma: StreamDMA) -> tuple:
        return ("wait_stream", dma)

    @staticmethod
    def delay(cycles: int) -> tuple:
        return ("delay", cycles)

    @staticmethod
    def memcpy(dst: int, src: int, size: int) -> tuple:
        return ("memcpy", dst, src, size)

    # -- execution --------------------------------------------------------------
    def run_driver(self, driver: DriverProgram, on_done: Optional[Callable[[], None]] = None) -> None:
        if self._driver is not None and not self._finished:
            raise RuntimeError(f"{self.name}: a driver is already running")
        self._driver = driver
        self._on_done = on_done
        self._finished = False
        self.op_log = []
        self.schedule_callback_in_cycles(self._advance, 1, name=f"{self.name}.boot")

    @property
    def finished(self) -> bool:
        return self._finished

    def _advance(self) -> None:
        assert self._driver is not None
        try:
            op = self._driver.send(self._send_value)
        except StopIteration:
            self._finished = True
            self.finish_tick = self.cur_tick
            if self._on_done is not None:
                done, self._on_done = self._on_done, None
                done()
            return
        self._send_value = None
        self.stat_ops.inc()
        overhead = self.op_overheads.get(op[0], 25)
        self.schedule_callback_in_cycles(
            lambda o=op: self._execute(o), overhead, name=f"{self.name}.op"
        )

    def _execute(self, op: tuple) -> None:
        kind = op[0]
        self.op_log.append((self.cur_tick, kind, self._op_log_args(op)))
        probe = self._probe
        if probe is not None:
            self.trace_emit("host", kind, args=self._op_trace_args(op))
        if kind == "write_mmr":
            __, addr, value = op
            self.stat_mmr_writes.inc()
            payload = (int(value) & ((1 << 64) - 1)).to_bytes(8, "little")
            pkt = write_packet(addr, payload, origin="host", agent=self.name)
            self._send_with_retry(pkt)
        elif kind == "read_mmr":
            __, addr = op
            pkt = read_packet(addr, 8, origin="host_read", agent=self.name)
            self._send_with_retry(pkt)
        elif kind == "wait_irq":
            __, irq = op
            if self.irq_controller is None:
                raise RuntimeError(f"{self.name}: no interrupt controller attached")
            self.stat_irq_waits.inc()
            # The raiser released this key, so acquiring it on wake-up
            # orders everything after the wait behind the device's work.
            self.irq_controller.wait(irq, self._acquire_then_advance(("irq", irq)))
        elif kind == "dma_copy":
            __, dma, src, dst, size = op
            if probe is not None:
                probe.sync(self.name, ("cmd", dma.name), True)
            dma.start(src, dst, size,
                      on_done=self._acquire_then_advance(("done", dma.name)))
        elif kind == "start_stream":
            __, dma, addr, tokens = op
            if probe is not None:
                probe.sync(self.name, ("cmd", dma.name), True)
            dma.start(addr, tokens, on_done=None)
            self._advance()
        elif kind == "wait_stream":
            __, dma = op
            self._wait_stream(dma)
        elif kind == "delay":
            __, cycles = op
            self.schedule_callback_in_cycles(self._advance, cycles, name=f"{self.name}.delay")
        elif kind == "memcpy":
            __, dst, src, size = op
            self._memcpy_state = (dst, src, size, 0)
            self._memcpy_step()
        else:
            raise ValueError(f"{self.name}: unknown driver op '{kind}'")

    def _acquire_then_advance(self, key) -> Callable[[], None]:
        """Continuation that acquires ``key`` on the bus, then advances."""
        probe = self._probe
        if probe is None:
            return self._advance

        def resume():
            probe.sync(self.name, key, False)
            self._advance()

        return resume

    @staticmethod
    def _op_log_args(op: tuple) -> dict:
        """Full operand record for the op log (richer than trace args)."""
        kind = op[0]
        if kind == "write_mmr":
            return {"addr": op[1], "value": op[2]}
        if kind == "read_mmr":
            return {"addr": op[1]}
        if kind == "wait_irq":
            return {"irq": op[1]}
        if kind == "dma_copy":
            return {"dma": op[1].name, "src": op[2], "dst": op[3], "size": op[4]}
        if kind == "start_stream":
            return {"dma": op[1].name, "addr": op[2], "tokens": op[3]}
        if kind == "wait_stream":
            return {"dma": op[1].name}
        if kind == "delay":
            return {"cycles": op[1]}
        if kind == "memcpy":
            return {"dst": op[1], "src": op[2], "size": op[3]}
        return {}

    @staticmethod
    def _op_trace_args(op: tuple) -> dict:
        kind = op[0]
        if kind in ("write_mmr", "read_mmr"):
            return {"addr": op[1]}
        if kind == "wait_irq":
            return {"irq": op[1]}
        if kind == "dma_copy":
            return {"dma": op[1].name, "size": op[4]}
        if kind in ("start_stream", "wait_stream"):
            return {"dma": op[1].name}
        if kind == "delay":
            return {"cycles": op[1]}
        if kind == "memcpy":
            return {"dst": op[1], "src": op[2], "size": op[3]}
        return {}

    def _send_with_retry(self, pkt: Packet) -> None:
        if not self.port.send_timing_req(pkt):
            self.schedule_callback_in_cycles(
                lambda p=pkt: self._send_with_retry(p), 1, name=f"{self.name}.retry"
            )

    def _recv_timing_resp(self, pkt: Packet) -> None:
        if pkt.origin == "host_read":
            self._send_value = int.from_bytes(pkt.data, "little")
            self._advance()
        elif pkt.origin == "host":
            self._advance()
        elif pkt.origin == "host_memcpy_read":
            dst, src, size, offset = self._memcpy_state
            write = write_packet(dst + offset, pkt.data,
                                 origin="host_memcpy_write", agent=self.name)
            self._send_with_retry(write)
        elif pkt.origin == "host_memcpy_write":
            dst, src, size, offset = self._memcpy_state
            offset += pkt.size
            self._memcpy_state = (dst, src, size, offset)
            if offset >= size:
                self._advance()
            else:
                self._memcpy_step()

    def _memcpy_step(self) -> None:
        dst, src, size, offset = self._memcpy_state
        chunk = min(8, size - offset)
        pkt = read_packet(src + offset, chunk,
                          origin="host_memcpy_read", agent=self.name)
        self._send_with_retry(pkt)

    def _wait_stream(self, dma: StreamDMA) -> None:
        if not dma.busy:
            self._acquire_then_advance(("done", dma.name))()
        else:
            self.schedule_callback_in_cycles(
                lambda d=dma: self._wait_stream(d), 8, name=f"{self.name}.poll"
            )
