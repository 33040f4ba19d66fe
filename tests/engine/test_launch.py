"""`ComputeUnit.launch`, the one launch path: a launch off the clock
edge (as a host MMR write lands) starts both engines on the same cycle."""

import pytest

from repro.exec.context import SimContext
from repro.workloads import get_workload


def _launch_mid_cycle(engine, memory):
    ctx = SimContext(get_workload("gemm_dse"), seed=7, verify=False,
                     engine=engine, memory=memory)
    acc = ctx.build()
    args = ctx.stage()
    unit = acc.unit
    period = unit.clock.period
    done = []
    acc.system.eventq.schedule_callback(
        lambda: unit.launch(args, on_done=lambda: done.append(unit.cur_tick)),
        period // 2, name="mid-cycle launch")
    acc.system.run()
    assert done, "kernel did not finish"
    assert unit.engine_request == engine
    return unit.engine.total_cycles, done[0], acc.system.cur_tick


@pytest.mark.parametrize("memory", ["spm", "cache"])
def test_mid_cycle_launch_matches_dynamic(memory):
    graph = _launch_mid_cycle("graph", memory)
    dynamic = _launch_mid_cycle("dynamic", memory)
    assert graph == dynamic
