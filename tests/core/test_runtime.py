"""Runtime engine: correctness across configurations, plus timing sanity."""

import numpy as np
import pytest

from repro.core.config import DeviceConfig
from repro.core.occupancy import ISSUE_KINDS, OccupancyTracker
from repro.system.soc import StandaloneAccelerator

VECADD = """
void vecadd(double a[64], double b[64], double c[64]) {
  for (int i = 0; i < 64; i++) { c[i] = a[i] + b[i]; }
}
"""

REDUCE = """
double reduce(double a[64]) {
  double s = 0;
  for (int i = 0; i < 64; i++) { s += a[i]; }
  return s;
}
"""

BRANCHY = """
void clip(double a[64], double out[64]) {
  for (int i = 0; i < 64; i++) {
    double v = a[i];
    if (v > 0.5) { out[i] = 0.5; }
    else { if (v < -0.5) { out[i] = -0.5; } else { out[i] = v; } }
  }
}
"""


def _run_vecadd(rng, **kwargs):
    acc = StandaloneAccelerator(VECADD, "vecadd", spm_bytes=1 << 13, **kwargs)
    a = rng.uniform(-1, 1, 64)
    b = rng.uniform(-1, 1, 64)
    pa, pb, pc = acc.alloc_array(a), acc.alloc_array(b), acc.alloc(512)
    result = acc.run([pa, pb, pc])
    out = acc.read_array(pc, np.float64, 64)
    assert np.allclose(out, a + b)
    return result


@pytest.mark.parametrize("unroll", [1, 4, 16])
def test_correct_across_unrolling(rng, unroll):
    _run_vecadd(rng, unroll_factor=unroll)


@pytest.mark.parametrize("ports", [1, 2, 8])
def test_correct_across_port_counts(rng, ports):
    cfg = DeviceConfig(read_ports=ports, write_ports=ports)
    _run_vecadd(rng, config=cfg, unroll_factor=8)


def test_more_ports_never_slower(rng):
    cycles = {}
    for ports in (1, 4, 16):
        cfg = DeviceConfig(read_ports=ports, write_ports=ports)
        cycles[ports] = _run_vecadd(rng, config=cfg, unroll_factor=16).cycles
    assert cycles[4] <= cycles[1]
    assert cycles[16] <= cycles[4]


def test_unrolling_reduces_cycles(rng):
    base = _run_vecadd(rng, unroll_factor=1).cycles
    unrolled = _run_vecadd(rng, unroll_factor=8,
                           config=DeviceConfig(read_ports=8, write_ports=8)).cycles
    assert unrolled < base


def test_fu_limits_slow_execution(rng):
    fast = _run_vecadd(rng, unroll_factor=16,
                       config=DeviceConfig(read_ports=16, write_ports=16)).cycles
    limited = _run_vecadd(
        rng, unroll_factor=16,
        config=DeviceConfig(read_ports=16, write_ports=16,
                            fu_limits={"fp_add": 1}),
    ).cycles
    assert limited >= fast


def test_reduction_value_exact(rng):
    acc = StandaloneAccelerator(REDUCE, "reduce", spm_bytes=1 << 13)
    a = rng.uniform(-1, 1, 64)
    pa = acc.alloc_array(a)
    acc.run([pa])
    # Sequential-sum golden (order matters for FP).
    expected = 0.0
    for v in a:
        expected += v
    # The return value is not observable through memory; re-run via MMR path
    # is exercised elsewhere.  Here we check cycle accounting instead.
    assert acc.unit.engine.total_cycles > 64  # at least one cycle per element


def test_data_dependent_control(rng):
    acc = StandaloneAccelerator(BRANCHY, "clip", spm_bytes=1 << 13)
    a = rng.uniform(-1, 1, 64)
    pa, pout = acc.alloc_array(a), acc.alloc(512)
    acc.run([pa, pout])
    out = acc.read_array(pout, np.float64, 64)
    assert np.allclose(out, np.clip(a, -0.5, 0.5))


def test_branchy_runtime_depends_on_data():
    """Execute-in-execute: different data -> different dynamic inst counts."""
    all_mid = np.zeros(64)
    all_high = np.ones(64)
    counts = {}
    for name, data in (("mid", all_mid), ("high", all_high)):
        acc = StandaloneAccelerator(BRANCHY, "clip", spm_bytes=1 << 13)
        pa, pout = acc.alloc_array(data), acc.alloc(512)
        acc.run([pa, pout])
        counts[name] = acc.unit.engine.stat_dyn_insts.value()
    assert counts["mid"] != counts["high"]


def test_occupancy_accounting_consistent(rng):
    result = _run_vecadd(rng, unroll_factor=4)
    occ = result.occupancy
    assert occ.cycles >= occ.issue_cycles + occ.stall_cycles
    assert 0 <= occ.stall_fraction() <= 1
    assert 0 <= occ.issue_fraction() <= 1
    assert occ.issued_ops > 0
    mix = occ.issue_mix()
    assert "load" in mix and "store" in mix


def test_issue_kinds_recorded_in_fixed_order():
    # Not the string-hash order of the set: the same in every process,
    # and the order the graph scheduler's kind table replays.
    occ = OccupancyTracker()
    occ.record_cycle([], frozenset(), {},
                     frozenset({"int", "store", "fp", "load"}))
    assert list(occ.issue_kind_cycles) == list(ISSUE_KINDS)
    assert ISSUE_KINDS == ("load", "store", "fp", "int")


def test_stall_sources_reported(rng):
    cfg = DeviceConfig(read_ports=1, write_ports=1)
    result = _run_vecadd(rng, config=cfg, unroll_factor=16)
    breakdown = result.occupancy.stall_breakdown()
    assert breakdown, "port-starved run must have stall cycles"
    assert abs(sum(breakdown.values()) - 1.0) < 1e-9


def test_energy_accumulates(rng):
    result = _run_vecadd(rng)
    assert result.power.fu_dynamic_pj > 0
    assert result.power.register_dynamic_pj > 0
    assert result.power.spm_read_pj > 0
    assert result.power.total_mw > 0


def test_reservation_window_limits_do_not_break(rng):
    cfg = DeviceConfig(reservation_window=8)
    _run_vecadd(rng, config=cfg, unroll_factor=4)


def test_small_queues_do_not_break(rng):
    cfg = DeviceConfig(read_queue_size=2, write_queue_size=1)
    _run_vecadd(rng, config=cfg, unroll_factor=4)


def test_engine_restart_rejected_while_running(rng):
    acc = StandaloneAccelerator(VECADD, "vecadd", spm_bytes=1 << 13)
    a = rng.uniform(-1, 1, 64)
    pa, pb, pc = acc.alloc_array(a), acc.alloc_array(a), acc.alloc(512)
    acc.unit.launch([pa, pb, pc])
    from repro.core.runtime import EngineError

    with pytest.raises(EngineError):
        acc.unit.engine.start([pa, pb, pc])
    acc.system.run()


def test_wrong_arity_rejected():
    acc = StandaloneAccelerator(VECADD, "vecadd", spm_bytes=1 << 13)
    from repro.core.runtime import EngineError

    with pytest.raises(EngineError):
        acc.unit.engine.start([1, 2])


def test_ideal_memory_not_slower_than_spm(rng):
    spm = _run_vecadd(rng, memory="spm").cycles
    ideal = _run_vecadd(rng, memory="ideal").cycles
    assert ideal <= spm
