"""Port-backed memory ≡ the inline model, byte for byte.

A standalone spm run normally takes the graph scheduler's inline memory
model.  An observer whose class overrides a per-access hook makes
`ComputeUnit.inline_spm` return None, so the same run drives every load
and store through the memctrl, its port and the SPM's timing model.
The two paths must give the same `RunResult`, key order included, and
end at the same tick.  A cache point is port-backed anyway; it is
checked against the dynamic engine.  The order of commits on the port
path, which the results cannot show, is checked on the ``compute``
trace channel.
"""

import json

import pytest

from repro.core.config import DeviceConfig
from repro.exec.context import SimContext
from repro.sim.probe import Probe
from repro.workloads import get_workload


class MemoryWatcher(Probe):
    """Watches memory and does nothing: only ``access`` is overridden."""

    def access(self, obj, agent, addr, size, is_write, tick):
        pass


def _run(name, forced=False, engine="graph", **kwargs):
    ctx = SimContext(get_workload(name), seed=7, verify=False, engine=engine,
                     **kwargs)
    if forced:
        ctx.build().system.attach_probe(MemoryWatcher())
    unit = ctx.build().unit
    assert (unit.inline_spm() is None) == (forced or kwargs["memory"] != "spm")
    outcome = json.dumps(ctx.run().to_dict())
    assert ctx.engine_used == engine
    return ctx.accelerator.system.cur_tick, outcome


@pytest.mark.parametrize("name", ["gemm", "nw", "fft", "spmv", "stencil3d"])
def test_forced_port_run_matches_inline(name):
    kwargs = dict(memory="spm", spm_bytes=1 << 16, unroll_factor=4)
    assert _run(name, forced=True, **kwargs) == _run(name, **kwargs)


def test_gemm_dse_cache_point_matches_dynamic():
    kwargs = dict(
        config=DeviceConfig(read_ports=4, write_ports=2,
                            fu_limits={"fp_add": 8, "fp_mul": 8}),
        unroll_factor=8, memory="cache",
        cache_kwargs=dict(size=4096, line_size=64, assoc=4),
    )
    assert (_run("gemm_dse", **kwargs)
            == _run("gemm_dse", engine="dynamic", **kwargs))


@pytest.mark.parametrize("name,memory", [("fft", "spm"), ("gemm_dse", "spm"),
                                         ("gemm_dse", "cache")])
def test_port_backed_commit_order_matches_dynamic(name, memory):
    # On the bundled kernels a reordered drain leaves the register-energy
    # sum unchanged, so results alone cannot show the order in which a
    # cycle drains its compute commits and memory arrivals.  The
    # ``compute`` trace channel emits one span per commit, in commit
    # order: on the port path it must list them as the dynamic engine's
    # event queue does.  With a one-cycle SPM a cycle's commit batches
    # precede its arrivals; the cache's two-cycle hits interleave them.
    spans = {}
    for engine in ("graph", "dynamic"):
        ctx = SimContext(get_workload(name), seed=7, verify=False,
                         engine=engine, trace="compute", memory=memory,
                         spm_bytes=1 << 16, unroll_factor=4)
        ctx.build().system.attach_probe(MemoryWatcher())
        ctx.run()
        spans[engine] = [(event.tick, event.kind, event.dur, event.args)
                         for event in ctx.trace_hub.events("compute")]
    assert spans["graph"] and spans["graph"] == spans["dynamic"]


class EmitCounter(MemoryWatcher):
    """A memory watcher that records no trace channel, counting emits."""

    def __init__(self):
        self.emits = 0

    def emit(self, channel, source, kind, tick, dur=0, args=None):
        self.emits += 1


@pytest.mark.parametrize("name,engine", [("gemm", "graph"),
                                         ("gemm_dse", "dynamic")])
def test_observer_without_channels_sees_no_emits(name, engine):
    # Compute commits, per-cycle ``sched`` logs and memory completions
    # build their trace payloads only for an observer that records them.
    counter = EmitCounter()
    ctx = SimContext(get_workload(name), seed=7, verify=False, engine=engine,
                     memory="spm", spm_bytes=1 << 16, unroll_factor=4)
    ctx.build().system.attach_probe(counter)
    ctx.run()
    assert ctx.engine_used == engine
    assert counter.emits == 0
