"""Tracing across the stack: exec layer, sweeps, CNN platform, CLI.

The acceptance bar from the issue: tracing is a pure observer (cycle
counts unchanged, never part of a cache key), parallel sweeps stay
byte-identical with tracing on, and a CNN scenario produces a
Perfetto-loadable Chrome trace with compute, mem, and dma events on a
consistent timeline.
"""

import json

import pytest

from repro.core.config import DeviceConfig
from repro.exec import ParallelSweep, RunCache, SimContext
from repro.system.soc import RunResult
from repro.trace import TraceConfig, chrome_trace, to_chrome_json
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def workload():
    return get_workload("gemm_dse")


def _configure(params):
    return dict(
        config=DeviceConfig(read_ports=2, write_ports=2),
        memory="spm",
        spm_bytes=1 << 15,
        unroll_factor=params["unroll"],
    )


# -- zero-overhead acceptance ----------------------------------------------
def test_tracing_does_not_change_cycles(workload):
    plain = SimContext(workload).run()
    traced_ctx = SimContext(workload, trace=True)
    traced = traced_ctx.run()
    assert traced.cycles == plain.cycles
    assert traced.runtime_ns == plain.runtime_ns
    assert traced_ctx.trace_hub is not None
    assert traced_ctx.trace_hub.total_emitted > 0


def test_untraced_context_attaches_nothing(workload):
    ctx = SimContext(workload)
    ctx.run()
    assert ctx.trace_hub is None
    assert ctx.accelerator.system.observers == []
    assert ctx.last_result.trace_summary is None


# -- RunResult / cache semantics -------------------------------------------
def test_trace_summary_rides_run_result(workload):
    ctx = SimContext(workload, trace="compute,mem")
    result = ctx.run()
    summary = result.trace_summary
    assert summary["channels"] == ["compute", "mem"]
    assert summary["emitted"]["compute"] > 0
    clone = RunResult.from_dict(result.to_dict())
    assert clone.trace_summary == summary


def test_trace_is_not_part_of_cache_key(workload):
    plain = SimContext(workload)
    traced = SimContext(workload, trace=True)
    assert plain.cache_key() == traced.cache_key()


def test_cache_hit_skips_tracing(workload):
    cache = RunCache()
    SimContext(workload, cache=cache).run()
    ctx = SimContext(workload, cache=cache, trace=True)
    result = ctx.run()
    assert cache.hits == 1
    # The hit skipped simulation entirely: no hub was ever built.
    assert ctx.trace_hub is None
    assert result.trace_summary is None


def test_context_reset_detaches_hub(workload):
    ctx = SimContext(workload, trace=True)
    ctx.run()
    first = ctx.trace_hub
    assert first is not None and first.total_emitted > 0
    ctx.reset()
    assert ctx.trace_hub is None
    ctx.run()
    # A fresh run gets a fresh hub; events are not mixed across runs.
    assert ctx.trace_hub is not first
    # The first run compiled the kernel (parse/lower/optimize land on
    # the 'build' channel); the reset run reuses the module, so every
    # *simulation* channel matches exactly and 'build' shows only the
    # new unit's elaboration and lowering (the context has no store).
    assert first.emitted["build"] > 0
    assert [e.kind for e in ctx.trace_hub.events("build")] == [
        "elaborate", "graph"]
    for channel, count in first.emitted.items():
        if channel != "build":
            assert ctx.trace_hub.emitted[channel] == count


# -- parallel sweeps --------------------------------------------------------
def test_traced_sweep_parallel_matches_serial(workload):
    grid = {"unroll": [1, 2]}
    rows = lambda pts: [json.dumps(p.record(), sort_keys=True) for p in pts]
    serial = ParallelSweep(workers=1, trace="compute").run(
        workload, grid, _configure, seed=7)
    parallel = ParallelSweep(workers=2, trace="compute").run(
        workload, grid, _configure, seed=7)
    assert rows(parallel) == rows(serial)
    for point in serial:
        assert point.result.trace_summary["emitted"]["compute"] > 0


def test_traced_and_untraced_sweeps_share_cache(workload):
    grid = {"unroll": [1]}
    cache = RunCache()
    ParallelSweep(workers=1, cache=cache).run(workload, grid, _configure, seed=7)
    ParallelSweep(workers=1, cache=cache, trace=True).run(
        workload, grid, _configure, seed=7)
    # Tracing never changes the key: the traced sweep is a pure cache hit.
    assert cache.hits == 1 and cache.misses == 1


# -- CNN platform acceptance ------------------------------------------------
def test_cnn_scenario_chrome_trace(tmp_path):
    from repro.system.cnn_scenarios import run_private_spm

    hub = TraceConfig(channels="compute,mem,dma,irq,host").make_hub()
    result = run_private_spm(seed=7, trace_hub=hub)
    assert result.verified

    emitted = hub.summary()["emitted"]
    for channel in ("compute", "mem", "dma", "irq", "host"):
        assert emitted[channel] > 0, f"no {channel} events"

    doc = json.loads(to_chrome_json(hub))
    events = doc["traceEvents"]
    categories = {e.get("cat") for e in events}
    assert {"compute", "mem", "dma"} <= categories
    # Schema: every event carries ph/ts/pid.
    for event in events:
        assert "ph" in event and "ts" in event and "pid" in event
    # Consistent timeline: every span fits inside the run's tick window.
    end_us = result.total_ns / 1e3
    for event in events:
        if event["ph"] == "M":
            continue
        assert 0 <= event["ts"] <= end_us + 1
        assert event["ts"] + event.get("dur", 0) <= end_us + 1

    # Three accelerators each have a compute track of their own.
    meta = {e["args"]["name"] for e in events if e["ph"] == "M"}
    assert {"conv.engine", "relu.engine", "pool.engine"} <= meta


def test_cnn_scenario_units_emit_their_build_spans():
    # Cluster units build no store entries: each elaborates and lowers
    # once, on the hub the platform attached before adding them.
    from repro.system.cnn_scenarios import run_private_spm

    hub = TraceConfig(channels="build,compute").make_hub()
    assert run_private_spm(seed=7, trace_hub=hub).verified
    spans = sorted((e.kind, e.args["func_name"]) for e in hub.events("build"))
    assert spans == [("elaborate", "conv2d"), ("elaborate", "maxpool"),
                     ("elaborate", "relu"), ("graph", "conv2d"),
                     ("graph", "maxpool"), ("graph", "relu")]


def test_cnn_tracing_leaves_timing_unchanged():
    from repro.system.cnn_scenarios import run_private_spm

    plain = run_private_spm(seed=7)
    hub = TraceConfig().make_hub()
    traced = run_private_spm(seed=7, trace_hub=hub)
    assert traced.total_ns == plain.total_ns
    assert traced.acc_cycles == plain.acc_cycles


# -- CLI --------------------------------------------------------------------
def test_cli_run_trace_out(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "trace.json"
    assert main(["run", "gemm_dse", "--trace", "compute,mem",
                 "--trace-out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "trace written" in printed
    doc = json.loads(out.read_text())
    assert doc["traceEvents"]
    assert all("ph" in e and "ts" in e and "pid" in e
               for e in doc["traceEvents"])


def _build_events(argv, out):
    from repro.cli import main

    assert main(argv + ["--trace", "build", "--trace-out", str(out)]) == 0
    return [e["name"] for e in json.loads(out.read_text())["traceEvents"]
            if e.get("cat") == "build"]


def test_cli_run_build_trace_covers_elaborate_and_graph(tmp_path):
    # The unit elaborates and lowers through its own build pipeline:
    # both spans reach the run's hub, once each, after the compile's.
    argv = ["run", "gemm_dse", "--ports", "4", "--unroll", "2"]
    names = _build_events(argv, tmp_path / "build.json")
    assert names[:2] == ["parse", "lower"]
    assert names[-3:] == ["optimize", "elaborate", "graph"]
    # With a warm store nothing is built, so no build span is emitted.
    store = ["--artifact-dir", str(tmp_path / "art")]
    assert names == _build_events(argv + store, tmp_path / "cold.json")
    assert _build_events(argv + store, tmp_path / "warm.json") == []


def test_cli_run_trace_cache_hit_warns(tmp_path, capsys):
    from repro.cli import main

    cache_dir = str(tmp_path / "cache")
    assert main(["run", "gemm_dse", "--cache-dir", cache_dir]) == 0
    capsys.readouterr()
    assert main(["run", "gemm_dse", "--cache-dir", cache_dir,
                 "--trace", "compute"]) == 0
    printed = capsys.readouterr().out
    assert "skipped (cache hit" in printed


def test_cli_rejects_unknown_channel(capsys):
    from repro.cli import main
    from repro.trace import TraceError

    with pytest.raises(TraceError):
        main(["run", "gemm_dse", "--trace", "bogus"])
