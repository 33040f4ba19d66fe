"""Contract: a `SimGraph` and an `ElaborationRecord` are read-only
under a run.

The artifact store hands the same decoded `SimGraph` to every graph hit
and the same `ElaborationRecord` to every elaboration hit, and a sweep
process runs all of its points on one lowering and one elaboration per
datapath, so no run may write to either.  Here one shared gemm graph
and record serve spm, cache and ideal runs, a fault-injected run, an
``engine="dynamic"`` run (which reads the record through the CDFG's
nodes) and four of those runs on four threads at once (serve's workers
share a store).  After each, the graph (its operand tables included) and
the record pickle to the same bytes, the graph's closures (eval thunks
and memory codecs, built once, on first use, and held with the graph)
are the same objects, and the run's `RunResult` JSON equals that of a
run on a freshly elaborated and lowered datapath.  The spm, cache and
ideal runs stage their arguments at different addresses, which each run
binds into its own copies of the templates.

The record is shared across private module copies (every module hit is
one), so it must never lead a unit to another copy's instructions:
`test_record_shared_across_module_copies` pins that.
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

SPM_BASE = 0x2000_0000

POINTS = {
    "spm": dict(memory="spm"),
    "cache": dict(memory="cache"),
    "ideal": dict(memory="ideal"),
    "spm+bit_flip": dict(memory="spm",
                         faults=f"bit_flip@spm:access=1,addr={SPM_BASE + 7:#x},"
                                "bit=6"),
    "dynamic": dict(memory="spm", engine="dynamic"),
}


def _run(store=None, **kwargs):
    ctx = SimContext(get_workload("gemm"), seed=7, verify=False,
                     artifact_store=store, **kwargs)
    return ctx, json.dumps(ctx.run().to_dict(), sort_keys=True)


@pytest.fixture(scope="module")
def fresh():
    """Each point's result JSON on a graph lowered for that run alone."""
    return {name: _run(**kwargs)[1] for name, kwargs in POINTS.items()}


def _record(ctx):
    return ctx.accelerator.unit.iface.cdfg.record


def _freeze(value, callables=id):
    """A comparable deep snapshot; a callable becomes ``callables(it)``."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item, callables) for item in value)
    if isinstance(value, dict):
        return tuple((key, _freeze(item, callables))
                     for key, item in value.items())
    if callable(value):
        return callables(value)
    return value


def _closures(graph, callables=id):
    """Snapshot of the graph's lazily built closures."""
    return _freeze((graph.evals, graph.codecs), callables)


@pytest.fixture(scope="module")
def shared():
    """A store holding one lowered gemm graph and its elaboration
    record, their pickles taken before any run, and a snapshot of the
    graph's closures."""
    store = ArtifactStore()
    unit = SimContext(get_workload("gemm"), seed=7, verify=False,
                      artifact_store=store).build().unit
    graph, record = unit.graph(), unit.iface.cdfg.record
    return (store, graph, record, pickle.dumps((graph, record)),
            _closures(graph))


def _assert_closures_unchanged(graph, closures):
    assert _closures(graph) == closures


@pytest.mark.parametrize("name", sorted(POINTS))
def test_run_leaves_shared_graph_unchanged(shared, fresh, name):
    store, graph, record, before, closures = shared
    ctx, result = _run(store, **POINTS[name])
    assert ctx.engine_used == POINTS[name].get("engine", "graph")
    assert _record(ctx) is record
    if ctx.engine_used == "graph":
        assert ctx.accelerator.unit.graph() is graph
        # A graph hit never pairs the record with instructions.
        assert ctx.accelerator.unit.iface.cdfg._nodes is None
    if "faults" in POINTS[name]:
        assert ctx.fault_injector.injected  # the fault fired
    assert pickle.dumps((graph, record)) == before
    _assert_closures_unchanged(graph, closures)
    assert result == fresh[name]


def test_graph_miss_binds_no_static_nodes():
    # Lowering reads the elaboration record itself: only the dynamic
    # engine pairs it with instructions.
    ctx = SimContext(get_workload("gemm_dse"), seed=7,
                     artifact_store=ArtifactStore())
    STAGE_COUNTERS.reset()
    ctx.run()
    assert ctx.engine_used == "graph"
    assert STAGE_COUNTERS.snapshot()["graph"] == 1  # lowered here
    assert ctx.accelerator.unit.iface.cdfg._nodes is None


def test_unit_summary_binds_no_static_nodes():
    # Counting blocks reads the function, not the per-instruction nodes.
    ctx = SimContext(get_workload("gemm_dse"), seed=7,
                     artifact_store=ArtifactStore())
    ctx.run()
    unit = ctx.accelerator.unit
    summary = unit.summary()
    assert summary["blocks"] == len(unit.iface.cdfg.func.blocks) > 1
    assert unit.iface.cdfg._nodes is None


def test_runs_at_different_addresses_share_operand_tables(shared, fresh):
    store, graph, record, before, closures = shared
    staged = {}
    for name in ("spm", "cache", "ideal", "spm+bit_flip"):
        ctx, result = _run(store, **POINTS[name])
        assert ctx.accelerator.unit.graph() is graph
        staged[name] = tuple(ctx.accelerator.unit.launch_log[0][1])
        assert result == fresh[name]
        _assert_closures_unchanged(graph, closures)
    assert staged["spm"] != staged["cache"]
    assert graph.arg_slots  # gemm's GEPs read its pointer arguments
    assert pickle.dumps((graph, record)) == before


def test_pickled_graph_rebuilds_closures_lazily(shared):
    graph = shared[1]
    assert graph.evals is not None and graph.codecs is not None
    clone = pickle.loads(pickle.dumps(graph))
    assert "_evals" not in clone.__dict__
    assert "_codecs" not in clone.__dict__
    assert clone.codecs is clone.codecs  # built once, on first use
    # The operand tables travel in the pickle.
    assert clone.templates == graph.templates
    assert clone.phi_binds == graph.phi_binds
    # Closures cannot be compared across the copies; they are rebuilt
    # with one wherever the original has one.
    assert (_closures(clone, lambda fn: "callable")
            == _closures(graph, lambda fn: "callable"))


def test_concurrent_runs_share_graph_read_only(shared, fresh):
    # Four threads switching often, so the runs interleave inside the
    # scheduler's loop.
    store, graph, record, before, closures = shared
    names = ["spm", "cache", "ideal", "dynamic"]
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
        assert _record(ctx) is record
        if ctx.engine_used == "graph":
            assert ctx.accelerator.unit.graph() is graph
        assert result == fresh[name]
    assert pickle.dumps((graph, record)) == before
    _assert_closures_unchanged(graph, closures)


@pytest.mark.parametrize("first", ["dynamic", "graph"])
def test_record_shared_across_module_copies(first):
    # Both contexts get their module as a private copy from a store hit.
    # The first elaborates from its copy; the second — a dynamic run, or
    # a graph run whose latency override misses the graph store — hits
    # that record and must bind it to its own copy's instructions.  Both
    # match their store-less twins byte for byte.
    workload = get_workload("gemm_dse")
    overridden = dict(config=DeviceConfig(latency_overrides={"fp_mul": 6}))
    kinds = {"dynamic": dict(engine="dynamic"), "graph": overridden}
    order = [first, "graph" if first == "dynamic" else "dynamic"]

    def run(store, kind):
        ctx = SimContext(workload, seed=7, artifact_store=store, **kinds[kind])
        return ctx, json.dumps(ctx.run().to_dict(), sort_keys=True)

    storeless = {kind: run(None, kind)[1] for kind in order}
    store = ArtifactStore()
    build_module(workload.source, workload.func_name, store=store)
    STAGE_COUNTERS.reset()
    contexts = {}
    for kind in order:
        contexts[kind], result = run(store, kind)
        assert result == storeless[kind]
    # One elaboration between them; only the graph run lowers.
    assert STAGE_COUNTERS.snapshot() == dict(
        parse=0, lower=0, optimize=0, elaborate=1, graph=1)
    units = [contexts[kind].accelerator.unit for kind in order]
    assert units[0].iface.module is not units[1].iface.module
    assert units[0].iface.cdfg.record is units[1].iface.cdfg.record
    for unit in units:
        own = set(map(id, unit.iface.func.instructions()))
        assert all(id(node.inst) in own
                   for node in unit.iface.cdfg.nodes.values())
