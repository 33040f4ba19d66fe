"""Contract: a `SimGraph` is read-only under a run.

The artifact store hands the same decoded `SimGraph` to every graph hit,
and a sweep process runs all of its points on one lowering per
datapath, so no run may write to the graph it runs on.  Here one shared
gemm graph serves spm, cache and ideal runs, a fault-injected run and
three runs on three threads at once (serve's workers share a store).
After each, the graph pickles to the same bytes, and the run's
`RunResult` JSON equals that of a run on a freshly lowered graph.
"""

import json
import pickle
import sys
import threading

import pytest

from repro.build.store import ArtifactStore
from repro.exec.context import SimContext
from repro.workloads import get_workload

SPM_BASE = 0x2000_0000

POINTS = {
    "spm": dict(memory="spm"),
    "cache": dict(memory="cache"),
    "ideal": dict(memory="ideal"),
    "spm+bit_flip": dict(memory="spm",
                         faults=f"bit_flip@spm:access=1,addr={SPM_BASE + 7:#x},"
                                "bit=6"),
}


def _run(store=None, **kwargs):
    ctx = SimContext(get_workload("gemm"), seed=7, verify=False,
                     artifact_store=store, **kwargs)
    return ctx, json.dumps(ctx.run().to_dict(), sort_keys=True)


@pytest.fixture(scope="module")
def fresh():
    """Each point's result JSON on a graph lowered for that run alone."""
    return {name: _run(**kwargs)[1] for name, kwargs in POINTS.items()}


@pytest.fixture(scope="module")
def shared():
    """A store holding one lowered gemm graph, and the graph's pickle
    taken before any run."""
    store = ArtifactStore()
    graph = SimContext(get_workload("gemm"), seed=7, verify=False,
                       artifact_store=store).build().unit.graph()
    return store, graph, pickle.dumps(graph)


@pytest.mark.parametrize("name", sorted(POINTS))
def test_run_leaves_shared_graph_unchanged(shared, fresh, name):
    store, graph, before = shared
    ctx, result = _run(store, **POINTS[name])
    assert ctx.engine_used == "graph"
    assert ctx.accelerator.unit.graph() is graph
    if "faults" in POINTS[name]:
        assert ctx.fault_injector.injected  # the fault fired
    assert pickle.dumps(graph) == before
    assert result == fresh[name]


def test_concurrent_runs_share_graph_read_only(shared, fresh):
    # Three threads switching often, so the runs interleave inside the
    # scheduler's loop.
    store, graph, before = shared
    names = ["spm", "cache", "ideal"]
    outcomes: dict = {}

    def work(name):
        outcomes[name] = _run(store, **POINTS[name])

    threads = [threading.Thread(target=work, args=(name,)) for name in names]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for name in names:
        ctx, result = outcomes[name]
        assert ctx.accelerator.unit.graph() is graph
        assert result == fresh[name]
    assert pickle.dumps(graph) == before
