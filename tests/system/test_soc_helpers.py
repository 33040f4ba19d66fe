"""Convenience helpers: one-call source runs, summaries, cluster power."""

import numpy as np
import pytest

from repro.exec import SimContext
from repro.system.soc import StandaloneAccelerator

SRC = """
void negate(double a[16], double out[16]) {
  for (int i = 0; i < 16; i++) { out[i] = -a[i]; }
}
"""


def test_from_source_one_call(rng):
    data = rng.uniform(-1, 1, 16)
    holder = {}

    def stage(acc):
        holder["pa"] = acc.alloc_array(data)
        holder["pout"] = acc.alloc(128)
        holder["acc"] = acc
        return [holder["pa"], holder["pout"]]

    result = SimContext.from_source(SRC, "negate", stage, memory="spm",
                                    spm_bytes=1 << 12).run()
    assert result.cycles > 0
    out = holder["acc"].read_array(holder["pout"], np.float64, 16)
    assert np.allclose(out, -data)


def test_compute_unit_summary(rng):
    acc = StandaloneAccelerator(SRC, "negate", spm_bytes=1 << 12)
    pa, pout = acc.alloc_array(rng.uniform(-1, 1, 16)), acc.alloc(128)
    acc.run([pa, pout])
    summary = acc.unit.summary()
    assert summary["function"] == "negate"
    assert summary["cycles"] > 0
    assert summary["invocations"] == 1
    assert summary["runtime_ns"] == summary["cycles"] * acc.config.cycle_time_ns


def test_unknown_memory_config_rejected():
    with pytest.raises(ValueError):
        StandaloneAccelerator(SRC, "negate", memory="holographic")


def test_incomplete_simulation_reported(rng):
    acc = StandaloneAccelerator(SRC, "negate", spm_bytes=1 << 12)
    pa, pout = acc.alloc_array(rng.uniform(-1, 1, 16)), acc.alloc(128)
    with pytest.raises(RuntimeError, match="before kernel completion"):
        acc.run([pa, pout], max_ticks=1)


def test_cluster_power_report_merges(rng):
    from repro.frontend import compile_c
    from repro.hw.default_profile import default_profile
    from repro.system.soc import build_soc
    from repro.core.mmr import ARGS_OFFSET, CTRL_IRQ_EN, CTRL_START

    soc = build_soc(dram_size=1 << 16)
    cluster = soc.add_cluster("cl")
    module = compile_c(SRC, "negate")
    units = []
    for i in range(2):
        unit = cluster.add_accelerator(
            f"acc{i}", module, "negate", default_profile(), private_spm_bytes=1 << 11
        )
        unit.comm.connect_irq(soc.irq.line(i))
        units.append(unit)
    soc.finalize()
    data = rng.uniform(-1, 1, 16)
    for unit in units:
        unit.private_spm.image.write_array(unit.private_spm.range.start, data)

    host = soc.host

    def driver(h):
        for unit in units:
            spm = unit.private_spm.range.start
            mmr = unit.comm.mmr.range.start
            yield h.write_mmr(mmr + ARGS_OFFSET, spm)
            yield h.write_mmr(mmr + ARGS_OFFSET + 8, spm + 256)
            yield h.write_mmr(mmr, CTRL_START | CTRL_IRQ_EN)
        yield h.wait_irq(0)
        yield h.wait_irq(1)

    host.run_driver(driver(host))
    soc.run(max_ticks=1_000_000_000)
    assert host.finished
    merged = cluster.power_report()
    singles = [u.power_report() for u in units]
    assert merged.fu_leakage_mw == pytest.approx(sum(s.fu_leakage_mw for s in singles))
    assert merged.total_mw > max(s.total_mw for s in singles)
