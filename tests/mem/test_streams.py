"""Stream buffers, stream ports, and stream DMAs."""

import pytest

from repro.mem.dram import DRAM
from repro.mem.stream_buffer import StreamBuffer
from repro.mem.stream_port import StreamPort
from repro.mem.dma import StreamDMA
from repro.mem.xbar import Crossbar
from repro.sim.packet import read_packet, write_packet
from repro.sim.ports import MasterPort


def test_fifo_order(system):
    buf = StreamBuffer("b", system, capacity_tokens=4)
    assert buf.try_push(b"\x01" * 8)
    assert buf.try_push(b"\x02" * 8)
    assert buf.try_pop() == b"\x01" * 8
    assert buf.try_pop() == b"\x02" * 8
    assert buf.try_pop() is None


def test_capacity_backpressure(system):
    buf = StreamBuffer("b", system, capacity_tokens=2)
    assert buf.try_push(bytes(8))
    assert buf.try_push(bytes(8))
    assert not buf.try_push(bytes(8))
    assert buf.stat_push_stalls.value() == 1
    assert buf.full


def test_token_size_enforced(system):
    buf = StreamBuffer("b", system, token_bytes=8)
    with pytest.raises(ValueError):
        buf.try_push(b"abc")


def test_space_notification(system):
    buf = StreamBuffer("b", system, capacity_tokens=1)
    buf.try_push(bytes(8))
    woken = []
    buf.on_space(lambda: woken.append(system.cur_tick))
    buf.try_pop()
    system.run()
    assert len(woken) == 1


def test_data_notification(system):
    buf = StreamBuffer("b", system, capacity_tokens=1)
    woken = []
    buf.on_data(lambda: woken.append(1))
    buf.try_push(bytes(8))
    system.run()
    assert woken == [1]


def test_max_occupancy_stat(system):
    buf = StreamBuffer("b", system, capacity_tokens=8)
    for __ in range(5):
        buf.try_push(bytes(8))
    buf.try_pop()
    assert buf.stat_max_occupancy.value() == 5


def test_stream_port_read_blocks_until_data(system):
    buf = StreamBuffer("b", system, capacity_tokens=4)
    port = StreamPort("sp", system, buf, base=0x9000_0000)
    responses = []
    master = MasterPort("m", recv_timing_resp=responses.append)
    master.bind(port.port)
    master.send_timing_req(read_packet(0x9000_0000, 8))
    system.run()
    assert responses == []  # empty FIFO: response withheld
    buf.try_push(b"\x2a" + bytes(7))
    system.run()
    assert len(responses) == 1
    assert responses[0].data[0] == 0x2A


def test_stream_port_preserves_order_with_multiple_outstanding(system):
    buf = StreamBuffer("b", system, capacity_tokens=8)
    port = StreamPort("sp", system, buf, base=0)
    responses = []
    master = MasterPort("m", recv_timing_resp=responses.append)
    master.bind(port.port)
    first = read_packet(0, 8)
    second = read_packet(0, 8)
    master.send_timing_req(first)
    master.send_timing_req(second)
    buf.try_push(bytes([1]) * 8)
    buf.try_push(bytes([2]) * 8)
    system.run()
    by_id = {r.pkt_id: r for r in responses}
    assert by_id[first.pkt_id].data[0] == 1
    assert by_id[second.pkt_id].data[0] == 2


def _timed_port(system, buf):
    """A stream port with a master that logs ``(tick, response)``."""
    port = StreamPort("sp", system, buf, base=0)
    responses = []
    master = MasterPort(
        "m", recv_timing_resp=lambda r: responses.append((system.cur_tick, r)))
    master.bind(port.port)
    return master, responses


def test_blocked_reads_share_one_data_waiter(system):
    buf = StreamBuffer("b", system, capacity_tokens=4)
    master, responses = _timed_port(system, buf)
    reads = [read_packet(0, 8) for __ in range(3)]
    for pkt in reads:
        master.send_timing_req(pkt)
    # One waiter for the port, however many reads are queued behind it,
    # and one stall per refused pop.
    assert len(buf._data_waiters) == 1
    assert buf.stat_pop_stalls.value() == 3
    for i, tick in enumerate((5000, 10000, 15000)):
        system.eventq.schedule_callback(
            lambda v=i + 1: buf.try_push(bytes([v]) * 8), tick)
    system.run()
    # Each push wakes the port one cycle later, and the pop's response
    # leaves one cycle after that, in arrival order.
    assert [(t, r.pkt_id, r.data[0]) for t, r in responses] == [
        (7000, reads[0].pkt_id, 1),
        (12000, reads[1].pkt_id, 2),
        (17000, reads[2].pkt_id, 3),
    ]
    # The first two wakes leave a reader waiting: one refused pop each.
    assert buf.stat_pop_stalls.value() == 5
    assert buf._data_waiters == []


def test_blocked_writes_share_one_space_waiter(system):
    buf = StreamBuffer("b", system, capacity_tokens=1)
    assert buf.try_push(bytes(8))
    master, responses = _timed_port(system, buf)
    writes = [write_packet(0, bytes([i + 1]) * 8) for i in range(3)]
    for pkt in writes:
        master.send_timing_req(pkt)
    assert len(buf._space_waiters) == 1
    assert buf.stat_push_stalls.value() == 3
    popped = []
    for tick in (5000, 10000, 15000, 20000):
        system.eventq.schedule_callback(
            lambda: popped.append(buf.try_pop()[0]), tick)
    system.run()
    assert [(t, r.pkt_id) for t, r in responses] == [
        (7000, writes[0].pkt_id),
        (12000, writes[1].pkt_id),
        (17000, writes[2].pkt_id),
    ]
    assert popped == [0, 1, 2, 3]
    assert buf.stat_push_stalls.value() == 5
    assert buf._space_waiters == []


def test_same_bound_method_registered_once(system):
    buf = StreamBuffer("b", system, capacity_tokens=2)

    class Endpoint:
        def __init__(self):
            self.wakes = []

        def wake(self):
            self.wakes.append(system.cur_tick)

    first, second = Endpoint(), Endpoint()
    order = []
    buf.on_data(first.wake)
    buf.on_data(lambda: order.append("plain"))
    buf.on_data(first.wake)
    buf.on_data(second.wake)
    assert buf._data_waiters[0] == first.wake
    assert buf._data_waiters[2] == second.wake
    assert len(buf._data_waiters) == 3
    buf.try_push(bytes(8))
    system.run()
    assert first.wakes == [1000]
    assert second.wakes == [1000]
    assert order == ["plain"]


def test_stream_port_write_pushes(system):
    buf = StreamBuffer("b", system, capacity_tokens=2)
    port = StreamPort("sp", system, buf, base=0)
    responses = []
    master = MasterPort("m", recv_timing_resp=responses.append)
    master.bind(port.port)
    master.send_timing_req(write_packet(0, b"\x07" * 8))
    system.run()
    assert buf.occupancy == 1
    assert buf.try_pop() == b"\x07" * 8


def test_stream_dma_mem_to_stream_and_back(system):
    xbar = Crossbar("xbar", system)
    dram = DRAM("dram", system, base=0x8000_0000, size=1 << 14)
    xbar.attach_slave(dram.port, dram.range)
    buf = StreamBuffer("b", system, capacity_tokens=4)
    feeder = StreamDMA("feed", system, buf, "mem_to_stream")
    drainer = StreamDMA("drain", system, buf, "stream_to_mem")
    feeder.port.bind(xbar.slave_port("f"))
    drainer.port.bind(xbar.slave_port("d"))
    payload = bytes(range(128))
    dram.image.write(0x8000_0000, payload)
    done = []
    feeder.start(0x8000_0000, 16)
    drainer.start(0x8000_1000, 16, on_done=lambda: done.append(1))
    system.run()
    assert done
    assert dram.image.read(0x8000_1000, 128) == payload
    assert feeder.stat_tokens.value() == 16
