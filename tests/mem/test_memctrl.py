"""Accelerator memory controller unit tests."""

import pytest

from repro.mem.memctrl import AcceleratorMemController
from repro.mem.spm import Scratchpad
from repro.sim.simobject import AddrRange
from repro.sim.ports import PortError


def _build(system, **kwargs):
    ctrl = AcceleratorMemController("ctrl", system, **kwargs)
    spm = Scratchpad("spm", system, base=0x1000, size=4096, read_ports=8,
                     write_ports=8)
    port = ctrl.add_route(spm.range)
    port.bind(spm.make_port())
    return ctrl, spm


def test_read_write_roundtrip(system):
    ctrl, spm = _build(system)
    done = []
    ctrl.enqueue_write(0x1000, b"\x2a" * 8, on_complete=lambda r: done.append(r))
    ctrl.pump()
    system.run()
    assert len(done) == 1
    reads = []
    ctrl.enqueue_read(0x1000, 8, on_complete=lambda r: reads.append(r.result))
    ctrl.pump()
    system.run()
    assert reads == [b"\x2a" * 8]


def test_port_limit_throttles_issue(system):
    ctrl, spm = _build(system, read_ports=2)
    finished = []
    for i in range(6):
        ctrl.enqueue_read(0x1000 + i * 8, 8, on_complete=lambda r: finished.append(r))
    ctrl.pump()
    # Only two issued this cycle; the rest wait in the read queue.
    assert len(ctrl.read_queue) == 4
    assert ctrl.stat_read_stalls.value() > 0
    # Later cycles drain the queue.
    for cycle in range(1, 5):
        system.eventq.schedule_callback(ctrl.pump, system.clock.cycles_to_ticks(cycle))
    system.run()
    assert len(finished) == 6


def test_ideal_mode_ignores_ports(system):
    ctrl, spm = _build(system, read_ports=1, ideal=True)
    spm.image.write(0x1000, bytes(range(64)))
    results = []
    for i in range(8):
        ctrl.enqueue_read(0x1000 + i * 8, 8, on_complete=lambda r: results.append(r.result))
    ctrl.pump()
    system.run()
    assert len(results) == 8
    assert results[0] == bytes(range(8))


def test_unrouted_address_raises(system):
    ctrl, __ = _build(system)
    ctrl.enqueue_read(0xDEAD_0000, 8, on_complete=lambda r: None)
    with pytest.raises(PortError):
        ctrl.pump()


def test_strict_ranges(system):
    ctrl, __ = _build(system)
    ctrl.add_strict_range(AddrRange(0x9000_0000, 0x100))
    assert ctrl.is_strict(0x9000_0000)
    assert ctrl.is_strict(0x9000_00FF)
    assert not ctrl.is_strict(0x1000)


def test_outstanding_accounting(system):
    ctrl, __ = _build(system)
    assert ctrl.outstanding == 0
    ctrl.enqueue_read(0x1000, 8, on_complete=lambda r: None)
    assert ctrl.outstanding == 1
    ctrl.pump()
    assert ctrl.outstanding == 1  # now in flight
    system.run()
    assert ctrl.outstanding == 0


def test_refused_pump_schedules_one_retry(system):
    # A refused read and a refused write in one pump() share a single
    # retry; one retry each doubled the pending retries every cycle.
    from repro.sim.ports import SlavePort

    ctrl = AcceleratorMemController("ctrl", system)
    busy = SlavePort("busy", recv_timing_req=lambda pkt: False)
    ctrl.add_route(AddrRange(0x1000, 4096)).bind(busy)
    ctrl.enqueue_read(0x1000, 8, on_complete=lambda r: None)
    ctrl.enqueue_write(0x1008, b"\0" * 8, on_complete=lambda r: None)
    ctrl.pump()
    system.run(max_tick=system.clock.cycles_to_ticks(10))
    assert system.eventq.events_fired == 10  # one retry pump per cycle
    assert len(ctrl.read_queue) == len(ctrl.write_queue) == 1


def test_nw_on_cache_memory_finishes():
    # nw refuses both queues at once on a full MSHR table; before the
    # one-retry rule its event queue grew without bound at cycle ~170.
    from repro.exec.context import SimContext
    from repro.workloads import get_workload

    ctx = SimContext(get_workload("nw"), seed=7, memory="cache")
    acc = ctx.build()
    done = []
    acc.unit.launch(ctx.stage(), on_done=lambda: done.append(True))
    assert acc.system.run(max_events=400_000) == "empty"
    assert done and acc.unit.engine.total_cycles == 16787
