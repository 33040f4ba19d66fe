"""ParallelSweep: grid expansion, parallel-vs-serial equivalence, caching.

The acceptance bar: a GEMM unroll x memory sweep through
``ParallelSweep(workers=4)`` produces byte-identical
``SweepPoint.record()`` rows to the serial path, and a second run of the
same grid is served entirely from the run cache.  With an on-disk
cache a sweep is resumable: a re-run answers the finished points from
the cache and executes only the rest.
"""

import json

from repro.core.config import DeviceConfig
from repro.exec import ParallelSweep, RunCache, grid_points
from repro.workloads import get_workload

GRID = {"memory": ["spm", "ideal"], "unroll": [1, 2]}
HALF_GRID = {"memory": ["spm"], "unroll": [1]}
FULL_GRID = {"memory": ["spm"], "unroll": [1, 2]}


def _configure(params):
    return dict(
        config=DeviceConfig(read_ports=2, write_ports=2),
        memory=params["memory"],
        spm_bytes=1 << 15,
        unroll_factor=params["unroll"],
    )


#: Provenance columns record what ran *this invocation* (a cache hit
#: runs nothing, so engine_used is "" by design); byte-identity is
#: asserted over the result columns.
PROVENANCE = ("engine_used",)


def _rows(points):
    return [json.dumps({k: v for k, v in p.record().items()
                        if k not in PROVENANCE}, sort_keys=True)
            for p in points]


def test_grid_points_cartesian_order():
    assert grid_points({"a": [1, 2], "b": ["x"]}) == [
        {"a": 1, "b": "x"},
        {"a": 2, "b": "x"},
    ]
    assert grid_points({}) == [{}]


def test_parallel_matches_serial_byte_identical():
    workload = get_workload("gemm_dse")
    serial = ParallelSweep(workers=1).run(workload, GRID, _configure, seed=7)
    parallel = ParallelSweep(workers=4).run(workload, GRID, _configure, seed=7)
    assert len(serial) == len(grid_points(GRID))
    assert _rows(parallel) == _rows(serial)
    # Grid order is preserved regardless of completion order.
    assert [p.params for p in parallel] == grid_points(GRID)


def test_second_sweep_hits_cache_for_every_point():
    workload = get_workload("gemm_dse")
    cache = RunCache()
    executor = ParallelSweep(workers=4, cache=cache)
    first = executor.run(workload, GRID, _configure, seed=7)
    points = len(first)
    assert cache.misses == points and cache.hits == 0
    second = executor.run(workload, GRID, _configure, seed=7)
    assert cache.hits == points, "second run must be served from the cache"
    assert cache.misses == points
    assert _rows(second) == _rows(first)


def test_cache_is_config_sensitive():
    workload = get_workload("gemm_dse")
    cache = RunCache()
    executor = ParallelSweep(workers=1, cache=cache)
    executor.run(workload, {"memory": ["spm"], "unroll": [1]}, _configure, seed=7)
    executor.run(workload, {"memory": ["spm"], "unroll": [2]}, _configure, seed=7)
    assert cache.hits == 0 and cache.misses == 2
    # Different seed -> different dataset -> different key.
    executor.run(workload, {"memory": ["spm"], "unroll": [1]}, _configure, seed=8)
    assert cache.hits == 0 and cache.misses == 3


def test_cached_parallel_sweep_records_match_serial():
    workload = get_workload("gemm_dse")
    cache = RunCache()
    cached = ParallelSweep(workers=2, cache=cache).run(
        workload, GRID, _configure, seed=7)
    direct = ParallelSweep(workers=1).run(workload, GRID, _configure, seed=7)
    assert _rows(cached) == _rows(direct)
    record = cached[0].record()
    for key in ("memory", "unroll", "cycles", "runtime_us", "power_mw",
                "stall_fraction", "issue_fraction") + PROVENANCE:
        assert key in record
    assert record["engine_used"] == "graph"


def test_sweep_records_graph_and_memory_fallback_per_point():
    workload = get_workload("gemm_dse")
    points = ParallelSweep().run(workload,
                                 {"memory": ["spm", "cache"], "unroll": [1]},
                                 _configure, seed=7)
    assert [p.engine_used for p in points] == ["graph", "graph"]
    watched = ParallelSweep(watchdog=True).run(
        workload, HALF_GRID, _configure, seed=7)
    assert [p.engine_used for p in watched] == ["graph"]


def test_sweep_engine_column_is_the_points_request():
    workload = get_workload("gemm_dse")
    cache = RunCache()

    def configure(params):
        return dict(_configure(params), engine=params["engine"])

    grid = {"memory": ["spm"], "unroll": [1], "engine": ["dynamic", "graph"]}
    ran = ParallelSweep(cache=cache).run(workload, grid, configure, seed=7)
    assert [p.engine_used for p in ran] == ["dynamic", "graph"]
    hits = ParallelSweep(cache=cache).run(workload, grid, configure, seed=7)
    assert [p.engine_used for p in hits] == ["", ""]
    failed = ParallelSweep(max_ticks=1).run(workload, grid, configure, seed=7)
    assert [(p.ok, p.engine_used) for p in failed] == [(False, "")] * 2


# -- resume from the run cache -----------------------------------------------
def test_half_done_sweep_resumes_from_the_cache(tmp_path):
    workload = get_workload("gemm_dse")
    # "Crash" after half the grid: only the unroll=1 point completed.
    first = ParallelSweep(cache=RunCache(tmp_path / "runs"))
    half = first.run(workload, HALF_GRID, _configure, seed=7)
    assert first.cache_hits == 0

    # Restart over the full grid from a fresh process's view of the same
    # directory: the finished point is resumed, only unroll=2 executes.
    second = ParallelSweep(cache=RunCache(tmp_path / "runs"))
    full = second.run(workload, FULL_GRID, _configure, seed=7)
    assert second.cache_hits == 1
    assert len(full) == 2

    # Byte-identical to a sweep that was never interrupted.
    uninterrupted = ParallelSweep().run(workload, FULL_GRID, _configure,
                                        seed=7)
    assert _rows(full) == _rows(uninterrupted)
    assert _rows(full[:1]) == _rows(half)


def test_rerun_resumes_every_point(tmp_path):
    workload = get_workload("gemm_dse")
    ParallelSweep(cache=RunCache(tmp_path / "runs")).run(
        workload, FULL_GRID, _configure, seed=7)
    cache = RunCache(tmp_path / "runs")
    again = ParallelSweep(cache=cache)
    again.run(workload, FULL_GRID, _configure, seed=7)
    assert again.cache_hits == 2
    # Idempotent: resuming stored no duplicate entries.
    assert len(cache) == 2


def test_resume_is_config_and_seed_sensitive(tmp_path):
    workload = get_workload("gemm_dse")
    ParallelSweep(cache=RunCache(tmp_path / "runs")).run(
        workload, HALF_GRID, _configure, seed=7)
    # Same params, different seed: a different run-cache key — the
    # stored point must NOT be reused.
    other = ParallelSweep(cache=RunCache(tmp_path / "runs"))
    other.run(workload, HALF_GRID, _configure, seed=8)
    assert other.cache_hits == 0


def test_on_point_fires_for_resumed_points(tmp_path):
    workload = get_workload("gemm_dse")
    ParallelSweep(cache=RunCache(tmp_path / "runs")).run(
        workload, FULL_GRID, _configure, seed=7)
    seen = []
    ParallelSweep(cache=RunCache(tmp_path / "runs")).run(
        workload, FULL_GRID, _configure, seed=7,
        on_point=lambda done, total, p: seen.append((done, total, p.ok)))
    assert seen == [(1, 2, True), (2, 2, True)]
