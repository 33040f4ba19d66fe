"""The `graph` build-pipeline stage: content-addressed lowering.

`BuildPipeline.graph` lowers an `ElaboratedDesign` to a `SimGraph`
artifact keyed by the module fingerprint + device config + profile (+
format version), so the artifact store amortizes lowering across runs
exactly like the frontend compile."""

import json
import pickle

import numpy as np
import pytest

from repro.build.artifact import ARTIFACT_KINDS, ElaboratedDesign
from repro.build.pipeline import STAGE_COUNTERS, BuildPipeline
from repro.build.store import ArtifactStore
from repro.core.config import DeviceConfig
from repro.engine import GRAPH_FORMAT_VERSION, compile_graph, graph_key
from repro.exec.context import SimContext
from repro.system.soc import StandaloneAccelerator
from repro.workloads import get_workload


def _design(unroll=1):
    ctx = SimContext(get_workload("gemm"), seed=7, verify=False,
                     memory="spm", unroll_factor=unroll)
    acc = ctx.build()
    return ElaboratedDesign(acc.unit.iface)


def test_graph_is_a_registered_artifact_kind():
    assert "graph" in ARTIFACT_KINDS


def test_graph_stage_produces_versioned_artifact():
    design = _design()
    artifact = BuildPipeline().graph(design)
    assert artifact.kind == "graph"
    assert artifact.meta["graph_version"] == GRAPH_FORMAT_VERSION
    assert artifact.key == graph_key(design)
    assert artifact.payload.n_nodes > 0


def test_graph_stage_hits_the_artifact_store():
    design = _design()
    store = ArtifactStore()
    pipeline = BuildPipeline(store=store)
    lowered_before = STAGE_COUNTERS.graph
    first = pipeline.graph(design)
    assert STAGE_COUNTERS.graph == lowered_before + 1
    second = pipeline.graph(design)
    # Served from the store: no second lowering.
    assert STAGE_COUNTERS.graph == lowered_before + 1
    assert store.hits >= 1
    assert second.key == first.key


def test_graph_key_tracks_the_lowered_module():
    assert graph_key(_design(unroll=1)) != graph_key(_design(unroll=4))


def test_reservation_window_shares_one_lowering():
    # Lowering never reads the window (the scheduler does), so the two
    # windows share one stored graph and still run as fresh lowerings do.
    workload = get_workload("gemm_dse")
    module = workload.build(unroll_factor=2).module

    def run(window, store=None):
        ctx = SimContext(workload, seed=7, verify=False, module=module,
                         artifact_store=store,
                         config=DeviceConfig(reservation_window=window))
        return json.dumps(ctx.run().to_dict(), sort_keys=True)

    fresh = {window: run(window) for window in (64, 128)}
    store = ArtifactStore()
    lowered_before = STAGE_COUNTERS.graph
    shared = {window: run(window, store) for window in (64, 128)}
    assert STAGE_COUNTERS.graph == lowered_before + 1
    assert shared == fresh


def test_sim_graph_pickles_and_rebuilds_evals():
    graph = compile_graph(_design())
    assert graph.evals is not None  # force the lazy build
    clone = pickle.loads(pickle.dumps(graph))
    assert clone.n_nodes == graph.n_nodes
    assert clone.arg_count == graph.arg_count
    # Eval closures are dropped on pickle and rebuilt lazily.
    assert len(clone.evals) == len(graph.evals)


def test_accelerator_reuses_store_cached_graph(tmp_path):
    store = ArtifactStore(tmp_path)
    for _ in range(2):
        ctx = SimContext(get_workload("gemm"), seed=7, verify=False,
                         engine="graph", memory="spm",
                         artifact_store=store)
        ctx.run()
        assert ctx.engine_used == "graph"
    assert store.hits >= 1


def test_graph_sweep_matches_dynamic_sweep():
    from repro.exec.parallel import ParallelSweep

    def configure(params):
        return {"memory": "spm", "spm_banks": params["banks"]}

    grid = {"banks": [2, 4]}
    points = ParallelSweep(verify=False).run(
        get_workload("gemm"), grid, configure, seed=7)
    assert [p.engine_used for p in points] == ["graph", "graph"]
    dynamic = [
        SimContext(get_workload("gemm"), seed=7, verify=False,
                   engine="dynamic", **configure(p.params)).run().to_dict()
        for p in points
    ]
    assert [p.result.to_dict() for p in points] == dynamic


# ``x`` enters the loop as the argument ``n``: a phi with an
# argument-fed incoming, which no shipped workload lowers.
COUNTDOWN = """
void countdown(int n, double a[16]) {
  int x = n;
  for (int i = 0; i < 16; i++) {
    a[i] = x;
    x--;
  }
}
"""


def _countdown(engine, n, store=None):
    acc = StandaloneAccelerator(COUNTDOWN, "countdown", engine=engine,
                                artifact_store=store)
    a = acc.alloc(16 * 8)
    result = acc.run([n, a])
    assert acc.read_array(a, np.float64, 16).tolist() == [
        float(n - i) for i in range(16)]
    return acc, json.dumps(result.to_dict(), sort_keys=True)


def test_argument_fed_phi_matches_dynamic(tmp_path, launched):
    acc, lowered = _countdown("graph", 20, ArtifactStore(tmp_path))
    assert acc.unit.graph().phi_arg_slots
    assert lowered == _countdown("dynamic", 20)[1]
    # A reopened store reads the graph back from disk, and a run with
    # another argument binds its own value into the phi.
    STAGE_COUNTERS.reset()
    acc, reread = _countdown("graph", -3, ArtifactStore(tmp_path))
    assert STAGE_COUNTERS.snapshot()["graph"] == 0
    assert acc.unit.graph().phi_arg_slots
    assert reread == _countdown("dynamic", -3)[1]
    assert launched == ["graph", "dynamic", "graph", "dynamic"]
