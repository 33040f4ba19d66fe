"""Compile-once sweeps: the tentpole regression guard.

Pre-refactor, every sweep point recompiled the kernel from source —
O(points x compile).  Now the parent process builds each *distinct*
(source, function, pipeline) combination exactly once and ships the
compiled module to the workers, so the frontend cost is O(distinct
kernels).  These tests pin that down with the process-wide
`STAGE_COUNTERS` and check the results stayed byte-identical.
"""

import json
import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.build import ArtifactStore, build_module
from repro.build.pipeline import STAGE_COUNTERS
from repro.core.config import DeviceConfig
from repro.exec import ParallelSweep, SimContext, parallel
from repro.exec.cache import run_cache_key
from repro.workloads import get_workload


@pytest.fixture(autouse=True)
def fresh_counters():
    STAGE_COUNTERS.reset()
    yield
    STAGE_COUNTERS.reset()


@pytest.fixture(scope="module")
def workload():
    return get_workload("gemm_dse")


def _configure_ports(params):
    return dict(
        config=DeviceConfig(read_ports=params["ports"],
                            write_ports=max(1, params["ports"] // 2)),
        memory="spm", spm_bytes=1 << 15, spm_read_ports=params["ports"],
    )


def _configure_unroll(params):
    return dict(config=DeviceConfig(read_ports=2, write_ports=2),
                memory="spm", spm_bytes=1 << 15,
                unroll_factor=params["unroll"])


def _rows(points):
    return [json.dumps(p.record(), sort_keys=True) for p in points]


# -- the acceptance criterion ----------------------------------------------
def test_four_point_sweep_compiles_exactly_once(workload):
    # Four configuration points, one kernel: parse/lower/optimize must
    # each run exactly once, not four times.
    points = ParallelSweep(workers=1).run(
        workload, {"ports": [1, 2, 4, 8]}, _configure_ports, seed=7)
    assert len(points) == 4 and all(p.ok for p in points)
    assert STAGE_COUNTERS.parse == 1
    assert STAGE_COUNTERS.lower == 1
    assert STAGE_COUNTERS.optimize == 1


def test_parallel_workers_reuse_parent_compile(workload):
    # With real worker processes the parent still compiles exactly once
    # (workers receive the prebuilt module, so they never re-parse).
    points = ParallelSweep(workers=2).run(
        workload, {"ports": [1, 2, 4, 8]}, _configure_ports, seed=7)
    assert len(points) == 4 and all(p.ok for p in points)
    assert STAGE_COUNTERS.compiles() == 1


def test_distinct_kernels_compile_distinctly(workload):
    # Frontend cost is O(distinct kernels): two unroll factors are two
    # different pass pipelines, hence exactly two compiles for 4 points.
    def configure(params):
        return dict(
            config=DeviceConfig(read_ports=params["ports"], write_ports=2),
            memory="spm", spm_bytes=1 << 15, spm_read_ports=params["ports"],
            unroll_factor=params["unroll"],
        )

    points = ParallelSweep(workers=1).run(
        workload, {"unroll": [1, 2], "ports": [2, 4]}, configure, seed=7)
    assert len(points) == 4 and all(p.ok for p in points)
    assert STAGE_COUNTERS.parse == 2
    assert STAGE_COUNTERS.optimize == 2


def test_sweep_rows_match_pointwise_simulation(workload):
    # Byte-identical to the pre-refactor behaviour: each sweep row
    # reports exactly what a standalone SimContext computes for the
    # same configuration (which is how the serial path used to run).
    points = ParallelSweep(workers=2).run(
        workload, {"ports": [2, 8]}, _configure_ports, seed=7)
    for point in points:
        solo = SimContext(workload, seed=7,
                          **_configure_ports(point.params)).run()
        assert point.result.cycles == solo.cycles
        assert point.result.runtime_ns == solo.runtime_ns
        assert point.result.power.total_mw == solo.power.total_mw


def test_parallel_and_serial_rows_byte_identical(workload):
    grid = {"ports": [1, 2, 4, 8]}
    serial = ParallelSweep(workers=1).run(workload, grid, _configure_ports,
                                          seed=7)
    parallel = ParallelSweep(workers=4).run(workload, grid, _configure_ports,
                                            seed=7)
    assert _rows(parallel) == _rows(serial)


# -- lowering once per datapath --------------------------------------------
def _configure_datapath(params):
    # ``fus`` shapes the datapath, but each run binds its FU limits:
    # neither they nor ``ports`` and ``memory`` join the graph key.
    return dict(
        config=DeviceConfig(read_ports=params["ports"],
                            write_ports=max(1, params["ports"] // 2),
                            fu_limits={"fp_add": params["fus"],
                                       "fp_mul": params["fus"]}),
        memory=params["memory"], spm_bytes=1 << 15,
    )


def test_serial_sweep_lowers_once_per_datapath(workload):
    grid = {"fus": [2, 8], "ports": [1, 4],
            "memory": ["spm", "cache", "ideal"]}
    points = ParallelSweep(workers=1).run(workload, grid, _configure_datapath,
                                          seed=7)
    assert len(points) == 12 and all(p.ok for p in points)
    assert {p.engine_used for p in points} == {"graph"}
    assert STAGE_COUNTERS.graph == 1


def _init_pool_worker(workload, monkeypatch):
    """Install a sweep worker in this process, as a pool worker would."""
    module = build_module(workload.source, workload.func_name).module
    monkeypatch.setattr(parallel, "_worker", None)
    parallel._init_worker(parallel._SweepWorker(
        workload, [module], seed=7, verify=True, max_ticks=None, trace=None,
        watchdog=None, timeout_s=None))
    STAGE_COUNTERS.reset()


def test_pool_worker_body_lowers_once_per_datapath(workload, monkeypatch):
    _init_pool_worker(workload, monkeypatch)
    for fus in (2, 8):
        for memory in ("spm", "cache"):
            payload = parallel._run_in_worker(
                0, _configure_datapath(
                    {"fus": fus, "ports": 2, "memory": memory}), None)
            assert "__failure__" not in payload
    assert STAGE_COUNTERS.graph == 1
    assert STAGE_COUNTERS.compiles() == 0


# -- elaborating once per datapath ------------------------------------------
ELABORATION_GRID = {"fus": [2, 8, 32], "ports": [2],
                    "memory": ["spm", "cache", "ideal"]}


def test_serial_sweep_elaborates_once_per_datapath(workload):
    # Nine points, three distinct FU limits: one elaboration, through
    # the build pipeline's elaborate stage; each unit binds its limits.
    points = ParallelSweep(workers=1).run(workload, ELABORATION_GRID,
                                          _configure_datapath, seed=7)
    assert len(points) == 9 and all(p.ok for p in points)
    assert STAGE_COUNTERS.elaborate == 1


def test_pool_worker_body_elaborates_once_per_datapath(workload, monkeypatch):
    _init_pool_worker(workload, monkeypatch)
    for fus in ELABORATION_GRID["fus"]:
        for memory in ELABORATION_GRID["memory"]:
            payload = parallel._run_in_worker(
                0, _configure_datapath(
                    {"fus": fus, "ports": 2, "memory": memory}), None)
            assert "__failure__" not in payload
    assert STAGE_COUNTERS.elaborate == 1
    assert STAGE_COUNTERS.graph == 1


#: The Fig. 13 grid's shape: memory x FU limits x ports, 27 points.
FIG13_GRID = {"memory": ["ideal", "spm", "cache"], "fus": [2, 8, 32],
              "ports": [1, 4, 16]}


def test_pool_worker_body_builds_fig13_grid_once(workload, monkeypatch):
    # All 27 points through one worker: one elaboration and one
    # lowering, whatever the FU limits, ports and memory.
    _init_pool_worker(workload, monkeypatch)
    for memory in FIG13_GRID["memory"]:
        for fus in FIG13_GRID["fus"]:
            for ports in FIG13_GRID["ports"]:
                payload = parallel._run_in_worker(
                    0, _configure_datapath(
                        {"fus": fus, "ports": ports, "memory": memory}), None)
                assert "__failure__" not in payload
    assert STAGE_COUNTERS.elaborate == 1
    assert STAGE_COUNTERS.graph == 1
    assert STAGE_COUNTERS.compiles() == 0


def test_no_pool_submit_carries_a_module(workload, monkeypatch):
    submitted, installed = [], []

    class Recording(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            installed.append(kwargs["initargs"])
            super().__init__(*args, **kwargs)

        def submit(self, fn, /, *args, **kwargs):
            submitted.append(pickle.dumps((fn, args, kwargs)))
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", Recording)
    points = ParallelSweep(workers=2).run(
        workload, {"ports": [1, 2, 4]}, _configure_ports, seed=7)
    assert all(p.ok for p in points)
    assert len(submitted) == 3
    assert not any(b"repro.ir.module" in blob for blob in submitted)
    # The one distinct kernel reaches the pool once, via its initializer.
    ((worker,),) = installed
    assert len(worker.modules) == 1


# -- artifact store in sweeps ----------------------------------------------
def test_second_sweep_is_all_artifact_hits(workload, tmp_path):
    grid = {"ports": [1, 2, 4, 8]}
    first_store = ArtifactStore(tmp_path)
    ParallelSweep(workers=1, artifact_store=first_store).run(
        workload, grid, _configure_ports, seed=7)
    assert first_store.misses == 1 and first_store.hits == 0
    # A later invocation (fresh store object, same directory) never
    # touches the frontend.
    STAGE_COUNTERS.reset()
    second_store = ArtifactStore(tmp_path)
    points = ParallelSweep(workers=1, artifact_store=second_store).run(
        workload, grid, _configure_ports, seed=7)
    assert all(p.ok for p in points)
    assert second_store.hits == 1 and second_store.misses == 0
    assert STAGE_COUNTERS.parse == 0


def test_store_does_not_change_results(workload):
    grid = {"unroll": [1, 2]}
    plain = ParallelSweep(workers=1).run(workload, grid, _configure_unroll,
                                         seed=7)
    stored = ParallelSweep(workers=1, artifact_store=ArtifactStore()).run(
        workload, grid, _configure_unroll, seed=7)
    assert _rows(stored) == _rows(plain)


# -- explicit pipelines in sweeps ------------------------------------------
def test_sweep_pipeline_joins_run_cache_key(workload):
    base = run_cache_key(workload.source, workload.func_name, seed=7)
    # Back-compat: pipeline=None must not perturb pre-existing keys.
    assert run_cache_key(workload.source, workload.func_name, seed=7,
                         pipeline=None) == base
    assert run_cache_key(workload.source, workload.func_name, seed=7,
                         pipeline="o1") != base
    # Equivalent spellings share a key.
    assert (run_cache_key(workload.source, workload.func_name, seed=7,
                          pipeline="o1:2")
            == run_cache_key(workload.source, workload.func_name, seed=7,
                             pipeline="inline,mem2reg,constfold,dce,"
                                      "unroll:2,constfold,simplifycfg,dce"))


def test_sweep_with_explicit_pipeline(workload):
    points = ParallelSweep(workers=1, pipeline="o1:2").run(
        workload, {"ports": [2]}, _configure_ports, seed=7)
    (point,) = points
    assert point.ok
    baseline = SimContext(workload, seed=7, unroll_factor=2,
                          **_configure_ports({"ports": 2})).run()
    assert point.result.cycles == baseline.cycles
