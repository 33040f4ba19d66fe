"""Differential property suite: graph engine ≡ dynamic engine.

The graph backend's contract is *byte-identical* results: for every
registered workload, at every supported unroll factor, the serialized
`RunResult` (stats, energies, occupancy, memory-derived outputs) must
match the dynamic engine's output byte for byte — and the run must
actually have taken the graph path, so a silent fallback can never make
these tests vacuously green.
"""

import json

import pytest

from repro.exec.cache import RunCache
from repro.exec.context import SimContext
from repro.workloads import all_workload_names, get_workload


def _context(name, engine, unroll=1, **kwargs):
    kwargs.setdefault("memory", "spm")
    return SimContext(get_workload(name), seed=7, verify=False,
                      engine=engine, unroll_factor=unroll, **kwargs)


def _run_pair(name, unroll=1, **kwargs):
    dynamic_ctx = _context(name, "dynamic", unroll, **kwargs)
    dynamic = dynamic_ctx.run()
    ctx = _context(name, "graph", unroll, **kwargs)
    graph = ctx.run()
    assert ctx.engine_used == "graph"
    # Simulated time ends at the same tick, trailing memory events included.
    assert (ctx.accelerator.system.cur_tick
            == dynamic_ctx.accelerator.system.cur_tick)
    return dynamic, graph


# -- the property: every workload × unroll ∈ {1, 4} ---------------------
@pytest.mark.parametrize("unroll", [1, 4])
@pytest.mark.parametrize("name", all_workload_names())
def test_graph_matches_dynamic_byte_identical(name, unroll):
    dynamic, graph = _run_pair(name, unroll)
    # json.dumps preserves dict insertion order, so this asserts byte
    # identity of the serialized results, not just value equality.
    assert json.dumps(graph.to_dict()) == json.dumps(dynamic.to_dict())


# -- port-backed memory: memctrl -> cache -> DRAM -----------------------
@pytest.mark.parametrize("unroll", [1, 4])
@pytest.mark.parametrize("name", all_workload_names())
def test_graph_matches_dynamic_cache_memory(name, unroll):
    dynamic, graph = _run_pair(name, unroll, memory="cache")
    assert json.dumps(graph.to_dict()) == json.dumps(dynamic.to_dict())


# -- watched runs: the watchdog checks in from the graph loop ----------
WATCHED_CASES = ([(name, 1, "spm") for name in all_workload_names()]
                 + [("gemm", 4, "cache"), ("stencil3d", 4, "cache")])


@pytest.mark.parametrize("name,unroll,memory", WATCHED_CASES)
def test_graph_matches_dynamic_watched(name, unroll, memory):
    dynamic, graph = _run_pair(name, unroll, memory=memory, watchdog=True,
                               timeout_s=60)
    assert json.dumps(graph.to_dict()) == json.dumps(dynamic.to_dict())
    unwatched = _context(name, "graph", unroll, memory=memory).run()
    assert json.dumps(graph.to_dict()) == json.dumps(unwatched.to_dict())


def _fig13_point(memory, fus, ports):
    """A Fig. 13 GEMM design point (unroll 8 is the caller's)."""
    from repro.core.config import DeviceConfig

    kwargs = dict(
        config=DeviceConfig(read_ports=ports, write_ports=max(1, ports // 2),
                            fu_limits={"fp_add": fus, "fp_mul": fus}),
        memory=memory,
    )
    if memory == "cache":
        kwargs["cache_kwargs"] = dict(size=4096, line_size=64, assoc=4)
    else:
        kwargs.update(spm_bytes=1 << 15, spm_read_ports=ports,
                      spm_write_ports=max(1, ports // 2))
    return kwargs


@pytest.mark.parametrize("ports", [1, 16])
@pytest.mark.parametrize("fus", [2, 32])
def test_graph_matches_dynamic_fig13_cache_corners(fus, ports):
    dynamic, graph = _run_pair("gemm_dse", 8, **_fig13_point("cache", fus, ports))
    assert json.dumps(graph.to_dict()) == json.dumps(dynamic.to_dict())


# -- contended points: ready ops wait at closed issue gates -------------
def _blocked(result, kind):
    return result.to_dict()["occupancy"]["blocked_by_kind"].get(kind, 0)


def _fu_stalls(result, cls):
    return sum(value.get(cls, 0) for key, value in result.stats.items()
               if key.endswith("fu_issue_stalls") and isinstance(value, dict))


@pytest.mark.parametrize("ports", [1, 16])
@pytest.mark.parametrize("memory", ["spm", "ideal"])
def test_graph_matches_dynamic_fig13_contended(memory, ports):
    # Two pipelined fp_add/fp_mul units.  One scratchpad read port
    # backs up the read queue, so loads wait at its gate; otherwise fp
    # multiplies wait at their pool's.
    dynamic, graph = _run_pair("gemm_dse", 8, **_fig13_point(memory, 2, ports))
    assert json.dumps(graph.to_dict()) == json.dumps(dynamic.to_dict())
    if (memory, ports) == ("spm", 1):
        assert _blocked(graph, "load") > 0
    else:
        assert _fu_stalls(graph, "fp_mul") > 0


def test_graph_matches_dynamic_non_pipelined_pool():
    # One fp_div unit is busy for its whole latency: the pool gate of a
    # non-pipelined class.
    from repro.core.config import DeviceConfig

    dynamic, graph = _run_pair("md_knn", 4,
                               config=DeviceConfig(fu_limits={"fp_div": 1}))
    assert json.dumps(graph.to_dict()) == json.dumps(dynamic.to_dict())
    assert _fu_stalls(graph, "fp_div") > 0


def test_cut_short_cache_run_raises_the_same_error():
    errors = {}
    for engine in ("dynamic", "graph"):
        # Mid-run (the kernel takes 1509 cycles of 10,000 ticks).
        ctx = _context("gemm_dse", engine, 2, memory="cache",
                       max_ticks=5_000_000)
        with pytest.raises(RuntimeError) as info:
            ctx.run()
        assert ctx.engine_used == engine
        errors[engine] = (str(info.value), ctx.accelerator.system.cur_tick)
    assert errors["graph"] == errors["dynamic"]
    assert "before kernel completion" in errors["graph"][0]


@pytest.mark.parametrize("name", ["gemm", "spmv"])
def test_graph_matches_dynamic_ideal_memory(name):
    dynamic, graph = _run_pair(name, unroll=4, memory="ideal")
    assert json.dumps(graph.to_dict()) == json.dumps(dynamic.to_dict())


def test_graph_run_passes_golden_model_verification():
    ctx = SimContext(get_workload("gemm"), seed=7, verify=True,
                     engine="graph", memory="spm", unroll_factor=4)
    ctx.run()  # workload.verify raises on any functional mismatch
    assert ctx.engine_used == "graph"


# -- run-cache interchangeability ---------------------------------------
def test_cache_key_excludes_engine_choice():
    dynamic = _context("gemm", "dynamic", 4)
    graph = _context("gemm", "graph", 4)
    assert dynamic.cache_key() == graph.cache_key()


def test_engines_share_run_cache_entries():
    cache = RunCache()
    dynamic = _context("gemm", "dynamic", 4, cache=cache)
    first = dynamic.run()
    assert cache.misses == 1
    graph = _context("gemm", "graph", 4, cache=cache)
    served = graph.run()
    # The dynamic run's entry satisfies the graph request outright.
    assert cache.hits == 1
    assert graph.engine_used is None  # no simulation ran
    assert served.to_dict() == first.to_dict()


def test_cache_entries_byte_identical_across_engines(tmp_path):
    results = {}
    for engine in ("dynamic", "graph"):
        cache = RunCache(tmp_path / engine)
        _context("gemm", engine, 4, cache=cache).run()
        files = sorted(p.name for p in (tmp_path / engine).glob("*.json"))
        assert len(files) == 1
        results[engine] = (files[0],
                           (tmp_path / engine / files[0]).read_bytes())
    # Same fingerprint-keyed file name, same bytes inside.
    assert results["dynamic"] == results["graph"]


# -- FU pool accounting under contention --------------------------------
def test_fu_stall_stats_match_under_fu_limits():
    from repro.core.config import DeviceConfig

    config = DeviceConfig(fu_limits={"fp_mul": 1, "fp_add": 1})
    dynamic, graph = _run_pair("gemm", unroll=4, config=config)
    assert json.dumps(graph.to_dict()) == json.dumps(dynamic.to_dict())
    stalls = {key: value for key, value in graph.stats.items()
              if "fu_issue_stalls" in key}
    total = sum(sum(value.values()) if isinstance(value, dict) else value
                for value in stalls.values())
    assert stalls and total > 0, (
        "a 1-unit fp pool on unrolled gemm must block some acquires")


# -- tracing: the one place the engines differ ---------------------------
def test_traced_default_run_matches_traced_dynamic_run():
    # The event queue's per-event dispatch records exist only when the
    # event queue runs, so ``sched`` counts differ, and only a graph run
    # lowers its datapath (one more ``build`` span); every other
    # channel and every stat are identical.
    default = SimContext(get_workload("gemm_dse"), seed=7, verify=False,
                         trace=True, unroll_factor=2)
    graph = default.run()
    assert default.engine_used == "graph"
    dynamic = _context("gemm_dse", "dynamic", 2, trace=True).run()
    graph_dict, dynamic_dict = graph.to_dict(), dynamic.to_dict()
    graph_counts = graph_dict.pop("trace_summary")["emitted"]
    dynamic_counts = dynamic_dict.pop("trace_summary")["emitted"]
    assert json.dumps(graph_dict) == json.dumps(dynamic_dict)
    assert 0 < graph_counts.pop("sched") < dynamic_counts.pop("sched")
    assert graph_counts.pop("build") == dynamic_counts.pop("build") + 1
    assert graph_counts == dynamic_counts


def test_traced_cache_run_matches_traced_dynamic_run():
    graph_ctx = _context("gemm", "graph", 4, memory="cache", trace=True)
    graph = graph_ctx.run()
    assert graph_ctx.engine_used == "graph"
    dynamic = _context("gemm", "dynamic", 4, memory="cache", trace=True).run()
    graph_dict, dynamic_dict = graph.to_dict(), dynamic.to_dict()
    graph_counts = graph_dict.pop("trace_summary")["emitted"]
    dynamic_counts = dynamic_dict.pop("trace_summary")["emitted"]
    assert json.dumps(graph_dict) == json.dumps(dynamic_dict)
    assert 0 < graph_counts.pop("sched") < dynamic_counts.pop("sched")
    assert graph_counts.pop("build") == dynamic_counts.pop("build") + 1
    assert graph_counts == dynamic_counts
    assert graph_counts["mem"] > 0


@pytest.mark.parametrize("fus,ports", [(2, 1), (1, 4)])
def test_traced_sched_payloads_match_per_cycle(fus, ports):
    # Gated refusals are counted per gate, not per op: every cycle's
    # ``sched`` payload (issued, blocked with its key order,
    # outstanding) must still equal the dynamic engine's.
    from repro.trace.hub import TraceConfig

    trace = TraceConfig(channels=("sched",), capacity=1 << 20)
    payloads = {}
    for engine in ("dynamic", "graph"):
        ctx = _context("gemm_dse", engine, 8, trace=trace,
                       **_fig13_point("spm", fus, ports))
        ctx.run()
        assert ctx.engine_used == engine
        name = ctx.accelerator.unit.engine.name
        payloads[engine] = [
            (event.tick, event.dur, json.dumps(event.args))
            for event in ctx.trace_hub.events("sched")
            if event.source == name and event.kind == "cycle"]
    assert payloads["graph"] == payloads["dynamic"]
    blocked = [json.loads(args)["blocked"] for __, __, args in payloads["graph"]]
    # Several ops refused at one gate in one cycle: counted in bulk.
    assert any(count > 1 for kinds in blocked for count in kinds.values())
    if fus == 1:  # loads and fp ops both refused in one cycle
        assert any(len(kinds) > 1 for kinds in blocked)
