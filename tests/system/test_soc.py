"""Full-system integration: host driver, DMA, MMRs, interrupts, cluster."""

import numpy as np
import pytest

from repro.core.mmr import ARGS_OFFSET, CTRL_DONE, CTRL_IRQ_EN, CTRL_START
from repro.frontend import compile_c
from repro.hw.default_profile import default_profile
from repro.system.soc import build_soc

VECADD = """
void vecadd(double a[64], double b[64], double c[64]) {
  for (int i = 0; i < 64; i++) { c[i] = a[i] + b[i]; }
}
"""


@pytest.fixture
def soc_with_acc(rng):
    module = compile_c(VECADD, "vecadd")
    soc = build_soc(dram_size=1 << 20)
    cluster = soc.add_cluster("cl0")
    unit = cluster.add_accelerator(
        "acc0", module, "vecadd", default_profile(), private_spm_bytes=1 << 13
    )
    unit.comm.connect_irq(soc.irq.line(0))
    soc.finalize()
    a = rng.uniform(-1, 1, 64)
    b = rng.uniform(-1, 1, 64)
    da = soc.dram.image.alloc_array(a)
    db = soc.dram.image.alloc_array(b)
    dc = soc.dram.image.alloc(512)
    return soc, cluster, unit, (a, b), (da, db, dc)


def test_end_to_end_offload(soc_with_acc):
    soc, cluster, unit, (a, b), (da, db, dc) = soc_with_acc
    spm_base = unit.private_spm.range.start
    sa, sb, sc = spm_base, spm_base + 512, spm_base + 1024
    mmr = unit.comm.mmr.range.start
    h = soc.host

    def driver(h):
        yield h.dma_copy(cluster.dma, da, sa, 512)
        yield h.dma_copy(cluster.dma, db, sb, 512)
        yield h.write_mmr(mmr + ARGS_OFFSET + 0, sa)
        yield h.write_mmr(mmr + ARGS_OFFSET + 8, sb)
        yield h.write_mmr(mmr + ARGS_OFFSET + 16, sc)
        yield h.write_mmr(mmr, CTRL_START | CTRL_IRQ_EN)
        yield h.wait_irq(0)
        yield h.dma_copy(cluster.dma, sc, dc, 512)

    h.run_driver(driver(h))
    cause = soc.run(max_ticks=500_000_000)
    assert h.finished, f"driver stuck ({cause})"
    out = soc.dram.image.read_array(dc, np.float64, 64)
    assert np.allclose(out, a + b)
    assert unit.engine.total_cycles > 0
    assert unit.comm.stat_interrupts.value() == 1


def test_host_reads_status_mmr(soc_with_acc):
    soc, cluster, unit, arrays, addrs = soc_with_acc
    mmr = unit.comm.mmr.range.start
    h = soc.host
    observed = {}

    def driver(h):
        spm = unit.private_spm.range.start
        yield h.write_mmr(mmr + ARGS_OFFSET + 0, spm)
        yield h.write_mmr(mmr + ARGS_OFFSET + 8, spm)
        yield h.write_mmr(mmr + ARGS_OFFSET + 16, spm + 2048)
        yield h.write_mmr(mmr, CTRL_START | CTRL_IRQ_EN)
        yield h.wait_irq(0)
        observed["status"] = yield h.read_mmr(mmr)

    h.run_driver(driver(h))
    soc.run(max_ticks=500_000_000)
    assert observed["status"] & CTRL_DONE


def test_host_memcpy(rng):
    soc = build_soc(dram_size=1 << 16)
    soc.finalize()
    payload = bytes(rng.integers(0, 256, 64, dtype=np.uint8))
    src = soc.dram.range.start
    dst = src + 4096
    soc.dram.image.write(src, payload)
    h = soc.host

    def driver(h):
        yield h.memcpy(dst, src, 64)

    h.run_driver(driver(h))
    soc.run(max_ticks=100_000_000)
    assert h.finished
    assert soc.dram.image.read(dst, 64) == payload


def test_host_delay_costs_time():
    soc = build_soc()
    soc.finalize()
    h = soc.host

    def driver(h):
        yield h.delay(1000)

    h.run_driver(driver(h))
    soc.run()
    assert h.finish_tick >= h.clock.cycles_to_ticks(1000)


def test_irq_pending_before_wait(system):
    """Interrupts raised before the host waits are latched, not lost."""
    from repro.system.interrupts import InterruptController

    irq = InterruptController("gic", system)
    irq.raise_irq(3)
    fired = []
    irq.wait(3, lambda: fired.append(1))
    system.run()
    assert fired == [1]


def test_two_accelerators_in_cluster(rng):
    module = compile_c(VECADD, "vecadd")
    soc = build_soc(dram_size=1 << 20)
    cluster = soc.add_cluster("cl0", shared_spm_bytes=1 << 13)
    units = []
    for i in range(2):
        unit = cluster.add_accelerator(
            f"acc{i}", module, "vecadd", default_profile(), private_spm_bytes=1 << 13
        )
        unit.comm.connect_irq(soc.irq.line(i))
        units.append(unit)
    soc.finalize()

    a = rng.uniform(-1, 1, 64)
    for i, unit in enumerate(units):
        spm = unit.private_spm
        spm.image.write_array(spm.range.start, a)
        spm.image.write_array(spm.range.start + 512, a)

    mmrs = [u.comm.mmr.range.start for u in units]
    h = soc.host

    def driver(h):
        for unit, mmr in zip(units, mmrs):
            spm = unit.private_spm.range.start
            yield h.write_mmr(mmr + ARGS_OFFSET + 0, spm)
            yield h.write_mmr(mmr + ARGS_OFFSET + 8, spm + 512)
            yield h.write_mmr(mmr + ARGS_OFFSET + 16, spm + 1024)
        # Launch both, then wait for both: they run concurrently.
        yield h.write_mmr(mmrs[0], CTRL_START | CTRL_IRQ_EN)
        yield h.write_mmr(mmrs[1], CTRL_START | CTRL_IRQ_EN)
        yield h.wait_irq(0)
        yield h.wait_irq(1)

    h.run_driver(driver(h))
    soc.run(max_ticks=500_000_000)
    assert h.finished
    for unit in units:
        spm = unit.private_spm
        out = spm.image.read_array(spm.range.start + 1024, np.float64, 64)
        assert np.allclose(out, a + a)


def test_ideal_run_leaves_caller_config_unchanged():
    # One config reused across memory configurations, as a sweep's
    # configure callback might: the ideal run must not turn the later
    # spm run ideal too.
    from repro.core.config import DeviceConfig
    from repro.exec.context import SimContext
    from repro.workloads import get_workload

    config = DeviceConfig(read_ports=1, write_ports=1)
    cycles = [
        SimContext(get_workload("stencil3d"), seed=7, config=config,
                   memory=memory, unroll_factor=4).run().cycles
        for memory in ("spm", "ideal", "spm")
    ]
    assert not config.ideal_memory
    assert cycles[0] == cycles[2] != cycles[1]
