"""Contract: one lowering serves every FU limit.

FU limits are bound per run (`SimGraph.fu_binding`, `StaticCDFG`), not
lowered or elaborated, so neither the graph key nor the elaboration key
holds them.  Here each kernel's graph is lowered once, under
``fp_add=2``, and then reused under other limits: none, a tighter
``fp_add`` pool, wider ``fp_add``/``fp_mul`` pools, and a limited
``int_add``.  Every reused run's `RunResult` JSON must equal that of a
graph freshly lowered under the same limits and that of
``engine="dynamic"``.  The reuse goes through the in-memory store
(whose graph already holds other runs' bindings) and through a reopened
on-disk store (whose graph is unpickled, so it rebuilds its bindings).
"""

import json
import pickle
import sys
import threading

import pytest

from repro.build.pipeline import STAGE_COUNTERS, build_module
from repro.build.store import ArtifactStore
from repro.core.config import DeviceConfig
from repro.exec.context import SimContext
from repro.workloads import get_workload

LOWERED_UNDER = {"fp_add": 2}
LIMITS = [{}, {"fp_add": 1}, {"fp_add": 8, "fp_mul": 8}, {"int_add": 1}]
#: Per-run tables that must never pickle with a graph.
LIMIT_DEPENDENT = {"_fu_bindings", "gate", "dedicated", "pool_limit"}


@pytest.fixture(scope="module")
def modules():
    return {name: build_module(get_workload(name).source,
                               get_workload(name).func_name,
                               unroll_factor=4).module
            for name in ("gemm", "fft", "spmv")}


def _run(module, name, memory, limits, store=None, engine="graph"):
    ctx = SimContext(get_workload(name), seed=7, verify=False, module=module,
                     artifact_store=store, engine=engine, memory=memory,
                     config=DeviceConfig(fu_limits=dict(limits)))
    return ctx, json.dumps(ctx.run().to_dict(), sort_keys=True)


@pytest.mark.parametrize("memory", ["spm", "cache"])
@pytest.mark.parametrize("name", ["gemm", "fft", "spmv"])
def test_graph_lowered_once_runs_under_any_fu_limits(name, memory, modules,
                                                     tmp_path):
    module = modules[name]
    shared = ArtifactStore(tmp_path)
    ctx, _ = _run(module, name, memory, LOWERED_UNDER, store=shared)
    graph = ctx.accelerator.unit.graph()
    reopened = ArtifactStore(tmp_path)
    for limits in LIMITS:
        fresh = _run(module, name, memory, limits)[1]
        assert _run(module, name, memory, limits,
                    engine="dynamic")[1] == fresh, limits
        before = STAGE_COUNTERS.snapshot()
        ctx, reused = _run(module, name, memory, limits, store=shared)
        assert ctx.accelerator.unit.graph() is graph
        assert reused == fresh, limits
        ctx, unpickled = _run(module, name, memory, limits, store=reopened)
        assert ctx.accelerator.unit.graph() is not graph
        assert unpickled == fresh, limits
        after = STAGE_COUNTERS.snapshot()
        # The one lowering and elaboration served both stores.
        assert (after["graph"], after["elaborate"]) == (
            before["graph"], before["elaborate"]), limits


def test_pickled_graph_holds_no_limit_dependent_table(modules):
    store = ArtifactStore()
    ctx, _ = _run(modules["gemm"], "gemm", "spm", LOWERED_UNDER, store=store)
    graph = ctx.accelerator.unit.graph()
    blob = pickle.dumps(graph)
    for limits in LIMITS:
        _run(modules["gemm"], "gemm", "spm", limits, store=store)
    assert len(graph._fu_bindings) == 1 + len(LIMITS)
    # Binding more limits changed nothing that pickles.
    assert pickle.dumps(graph) == blob
    assert not LIMIT_DEPENDENT & set(graph.__getstate__())
    assert not LIMIT_DEPENDENT & set(vars(pickle.loads(blob)))


def test_concurrent_runs_bind_limits_on_one_graph(modules):
    # Four threads switching often, each under other limits, bind the
    # shared graph at once (serve's workers share a store).
    module = modules["gemm"]
    fresh = {i: _run(module, "gemm", "spm", limits)[1]
             for i, limits in enumerate(LIMITS)}
    store = ArtifactStore()
    ctx, _ = _run(module, "gemm", "spm", LOWERED_UNDER, store=store)
    graph = ctx.accelerator.unit.graph()
    outcomes: dict = {}

    def work(i):
        outcomes[i] = _run(module, "gemm", "spm", LIMITS[i], store=store)

    threads = [threading.Thread(target=work, args=(i,))
               for i in range(len(LIMITS))]
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
    for i, (ctx, result) in outcomes.items():
        assert ctx.accelerator.unit.graph() is graph
        assert result == fresh[i], LIMITS[i]
    assert len(graph._fu_bindings) == 1 + len(LIMITS)
