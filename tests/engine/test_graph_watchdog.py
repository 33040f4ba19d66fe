"""Watched runs stay on the graph engine: the scheduler's cycle loop
checks the run's `SimWatchdog` itself and reports hangs in the dynamic
engine's format."""

import re

import pytest

from repro.core.config import DeviceConfig
from repro.exec.context import SimContext
from repro.faults import SimulationHang
from repro.workloads import get_workload

SUMMARY = re.compile(r"^\S+: window=\d+ reads=\d+ writes=\d+ compute=\d+ "
                     r"committed=\d+ cycle=\d+$")
LINE = re.compile(r"^#\d+ \w+ \[(waiting|ready|issued)/(ready|mem)\] "
                  r"pending=\d+( addr=0x[0-9a-f]+)?$")


def _context(name="gemm", engine="graph", **kwargs):
    kwargs.setdefault("memory", "spm")
    return SimContext(get_workload(name), seed=7, verify=False,
                      engine=engine, **kwargs)


def _hang(ctx) -> SimulationHang:
    with pytest.raises(SimulationHang) as info:
        ctx.run()
    return info.value


def test_tiny_timeout_is_a_wallclock_hang_on_graph():
    # An spm run is one event to the queue: only the loop's own check
    # can see the deadline pass.
    ctx = _context(timeout_s=1e-9)
    hang = _hang(ctx)
    assert ctx.engine_used == "graph"
    assert hang.reason == "wallclock"
    assert SUMMARY.match(hang.inflight[0])
    assert all(LINE.match(line) for line in hang.inflight[1:])


def test_livelock_budget_trips_on_graph_like_on_dynamic():
    spec = {"livelock_cycles": 1, "interval": 1}
    graph_ctx = _context("spmv", watchdog=spec)
    graph = _hang(graph_ctx)
    assert graph_ctx.engine_used == "graph"
    assert graph.reason == "livelock"
    # The dump names the stuck instructions.
    assert any(LINE.match(line) and "store" in line
               for line in graph.inflight[1:])
    dynamic = _hang(_context("spmv", "dynamic", watchdog=spec))
    assert (graph.tick, graph.inflight) == (dynamic.tick, dynamic.inflight)

    # A contended point: one non-pipelined fp_div unit, so the budget
    # trips while fdivs wait parked at its pool gate.  The dump lists
    # ready ops in seq order on both engines.
    contended = dict(watchdog=spec, unroll_factor=4,
                     config=DeviceConfig(fu_limits={"fp_div": 1}))
    graph = _hang(_context("md_knn", **contended))
    dynamic = _hang(_context("md_knn", "dynamic", **contended))
    assert graph.reason == "livelock"
    parked = [line for line in graph.inflight[1:] if "/ready]" in line]
    assert len(parked) > 1 and all(" fdiv " in line for line in parked)
    seqs = [int(line.split()[0][1:]) for line in parked]
    assert seqs == sorted(seqs)
    assert (graph.tick, graph.inflight) == (dynamic.tick, dynamic.inflight)


@pytest.mark.parametrize("memory", ["spm", "cache"])
def test_watched_run_longer_than_the_livelock_budget_finishes(memory):
    # The loop publishes its commit count, so steady progress never
    # looks like a livelock however long the run is.
    ctx = _context("gemm_dse", memory=memory, unroll_factor=2,
                   watchdog={"livelock_cycles": 500, "interval": 8})
    result = ctx.run()
    assert ctx.engine_used == "graph"
    assert result.cycles > 500
    engine = ctx.accelerator.unit.engine
    assert engine.committed > 0
    assert not engine.running and engine.driver is None
