"""SimContext / Simulation lifecycle: build, run, reset, reuse, pickling."""

import json
import pickle

import pytest

from repro.core.config import DeviceConfig
from repro.exec import RunCache, SimContext, Simulation
from repro.faults import SimulationHang, SimWatchdog
from repro.sim.simobject import System
from repro.workloads import get_workload

KERNEL = """
void vecadd(double a[16], double b[16], double c[16]) {
  for (int i = 0; i < 16; i++) { c[i] = a[i] + b[i]; }
}
"""


def _gemm_context(**overrides):
    kwargs = dict(memory="spm", spm_bytes=1 << 15, unroll_factor=2)
    kwargs.update(overrides)
    return SimContext(get_workload("gemm_dse"), **kwargs)


def test_context_runs_and_verifies():
    ctx = _gemm_context()
    result = ctx.run()
    assert result.cycles > 0
    assert result.power.total_mw > 0
    assert ctx.accelerator is not None
    assert ctx.last_result is result


def test_context_reset_then_rerun_is_identical():
    ctx = _gemm_context()
    first = ctx.run()
    ctx.reset()
    assert ctx.accelerator is None
    second = ctx.run()
    assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(
        second.to_dict(), sort_keys=True
    )


def test_context_rerun_without_reset_auto_resets():
    ctx = _gemm_context()
    first = ctx.run()
    second = ctx.run()
    assert first.cycles == second.cycles


def test_context_explicit_phases():
    ctx = _gemm_context()
    acc = ctx.build()
    args = ctx.stage()
    assert ctx.accelerator is acc
    assert len(args) == len(ctx.workload.arg_order)
    result = ctx.run()
    assert result.cycles > 0


def test_context_argument_validation():
    with pytest.raises(ValueError):
        SimContext()  # neither workload nor source
    with pytest.raises(ValueError):
        SimContext(get_workload("gemm_dse"), source=KERNEL, func_name="vecadd")
    with pytest.raises(ValueError):
        SimContext(source=KERNEL)  # func_name missing
    with pytest.raises(ValueError):
        SimContext.from_source(KERNEL, "vecadd", lambda acc: [],
                               cache=RunCache())  # caching needs workload mode


def test_context_is_picklable_before_and_after_run():
    ctx = _gemm_context(config=DeviceConfig(read_ports=4))
    clone = pickle.loads(pickle.dumps(ctx))
    reference = ctx.run()
    # After a run the live system is dropped from the pickle, but the
    # spec survives and reproduces the run exactly.
    revived = pickle.loads(pickle.dumps(ctx))
    assert revived.accelerator is None
    for other in (clone, revived):
        assert other.run().cycles == reference.cycles


def test_context_uses_cache():
    cache = RunCache()
    ctx = _gemm_context(cache=cache)
    first = ctx.run()
    assert cache.misses == 1 and cache.hits == 0
    again = ctx.run()
    assert cache.hits == 1
    assert again.cycles == first.cycles
    # A fresh context with the same spec also hits.
    other = _gemm_context(cache=cache)
    assert other.run().cycles == first.cycles
    assert cache.hits == 2


def test_engine_used_is_none_after_a_cache_hit_on_a_reused_context():
    ctx = _gemm_context(cache=RunCache())
    assert ctx.engine_used is None  # nothing launched yet
    ctx.run()
    assert (ctx.cache_hit, ctx.engine_used) == (False, "graph")
    ctx.run()
    # The second run is served from the cache: nothing was simulated,
    # although the first run's system is still built.
    assert ctx.accelerator is not None
    assert (ctx.cache_hit, ctx.engine_used) == (True, None)


# -- Simulation wrapper ------------------------------------------------------
def test_simulation_runs_and_resets():
    system = System("sim.test")
    fired = []
    system.eventq.schedule_callback(lambda: fired.append(1), 10)
    sim = Simulation(system)
    assert sim.run() == "empty"
    assert sim.exit_cause == "empty"
    assert fired == [1]
    assert sim.cur_tick == 10
    sim.reset()
    assert sim.exit_cause is None
    assert system.cur_tick == 0
    system.eventq.schedule_callback(lambda: fired.append(2), 5)
    assert sim.run() == "empty"
    assert fired == [1, 2]


def test_simulation_forwards_max_events():
    system = System("sim.limit")
    for tick in (1, 2, 3):
        system.eventq.schedule_callback(lambda: None, tick)
    sim = Simulation(system)
    assert sim.run(max_events=2) == "max_events"
    assert sim.run() == "empty"


def test_simulation_stats_report():
    system = System("sim.stats")
    sim = Simulation(system)
    assert sim.stats() == {}
    assert "sim.stats" in sim.report()


# -- watchdogs: built per run, bound to the current system ----------------
def test_reused_watchdog_watches_the_current_system():
    watchdog = SimWatchdog(livelock_cycles=2000, wall_clock_s=5)
    _gemm_context(watchdog=watchdog).run()
    stalled = _gemm_context(watchdog=watchdog,
                            faults="port_stall@memctrl:tick=50000")
    with pytest.raises(SimulationHang) as info:
        stalled.run()
    # Not "wallclock": the stalled system's engine is the one watched.
    assert info.value.reason == "livelock"


def test_timeout_leaves_the_callers_watchdog_unchanged():
    watchdog = SimWatchdog(livelock_cycles=2000)
    _gemm_context(watchdog=watchdog, timeout_s=60).run()
    assert watchdog.wall_clock_s is None
    assert watchdog.engines == []
