"""Checkpointable sweeps and the exponential retry-backoff schedule.

The resume bar: a sweep that finished half its grid before dying must
re-execute only the other half on the next run, and the resumed rows
must be byte-identical to an uninterrupted sweep's.
"""

import json

from repro.core.config import DeviceConfig
from repro.exec import ParallelSweep, RunCache, SweepCheckpoint
from repro.workloads import get_workload

HALF_GRID = {"unroll": [1]}
FULL_GRID = {"unroll": [1, 2]}


def _configure(params):
    return dict(
        config=DeviceConfig(read_ports=2, write_ports=2),
        memory="spm",
        spm_bytes=1 << 15,
        unroll_factor=params["unroll"],
    )


#: Provenance columns describe what ran *this invocation* (a resumed
#: point ran nothing, so its engine_used is "" by design); the resume
#: bar is byte-identity of the result columns.
PROVENANCE = ("engine_used", "fallback_reason")


def _rows(points):
    return [json.dumps({k: v for k, v in p.record().items()
                        if k not in PROVENANCE}, sort_keys=True)
            for p in points]


# ----------------------------------------------------------------------
# Backoff schedule (satellite: linear -> exponential with cap)
# ----------------------------------------------------------------------
def test_retry_backoff_schedule_is_exponential_and_capped():
    executor = ParallelSweep(retry_backoff_s=0.1, retry_backoff_cap_s=1.0)
    assert [executor.retry_delay(n) for n in (1, 2, 3, 4, 5, 6)] \
        == [0.1, 0.2, 0.4, 0.8, 1.0, 1.0]
    # Deterministic: the same attempt always waits the same time.
    assert executor.retry_delay(3) == executor.retry_delay(3)


def test_backoff_defaults_start_where_the_linear_schedule_did():
    executor = ParallelSweep()
    assert executor.retry_delay(1) == 0.1
    assert executor.retry_delay(100) == executor.retry_backoff_cap_s


# ----------------------------------------------------------------------
# Checkpoint resume
# ----------------------------------------------------------------------
def test_half_done_sweep_resumes_from_checkpoint(tmp_path):
    workload = get_workload("gemm_dse")
    path = tmp_path / "sweep.ckpt.jsonl"
    # "Crash" after half the grid: only the unroll=1 point completed.
    first = ParallelSweep(checkpoint=path)
    half = first.run(workload, HALF_GRID, _configure, seed=7)
    assert first.checkpoint_resumed == 0
    assert path.exists()

    # Restart over the full grid, same checkpoint, NO cache: the
    # finished point is resumed from disk, only unroll=2 executes.
    second = ParallelSweep(checkpoint=path)
    full = second.run(workload, FULL_GRID, _configure, seed=7)
    assert second.checkpoint_resumed == 1
    assert len(full) == 2

    # Byte-identical to a sweep that was never interrupted.
    uninterrupted = ParallelSweep().run(workload, FULL_GRID, _configure,
                                        seed=7)
    assert _rows(full) == _rows(uninterrupted)
    assert _rows(full[:1]) == _rows(half)


def test_rerun_resumes_every_point(tmp_path):
    workload = get_workload("gemm_dse")
    path = tmp_path / "ckpt.jsonl"
    ParallelSweep(checkpoint=path).run(workload, FULL_GRID, _configure,
                                       seed=7)
    again = ParallelSweep(checkpoint=path)
    again.run(workload, FULL_GRID, _configure, seed=7)
    assert again.checkpoint_resumed == 2
    # Idempotent: resuming did not append duplicate rows.
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2


def test_checkpoint_is_config_and_seed_sensitive(tmp_path):
    workload = get_workload("gemm_dse")
    path = tmp_path / "ckpt.jsonl"
    ParallelSweep(checkpoint=path).run(workload, HALF_GRID, _configure,
                                       seed=7)
    # Same params, different seed: a different run-cache key — the
    # checkpointed row must NOT be reused.
    other = ParallelSweep(checkpoint=path)
    other.run(workload, HALF_GRID, _configure, seed=8)
    assert other.checkpoint_resumed == 0


def test_corrupt_tail_is_quarantined_good_rows_survive(tmp_path):
    workload = get_workload("gemm_dse")
    path = tmp_path / "ckpt.jsonl"
    ParallelSweep(checkpoint=path).run(workload, FULL_GRID, _configure,
                                       seed=7)
    with open(path, "ab") as fh:
        fh.write(b'{"key": "cut-mid-ap')  # SIGKILL mid-append

    resumed = ParallelSweep(checkpoint=path)
    resumed.run(workload, FULL_GRID, _configure, seed=7)
    assert resumed.checkpoint_resumed == 2  # good rows still resume
    assert (tmp_path / "ckpt.jsonl.corrupt").exists()
    # The file was rewritten to its parsable prefix.
    for line in path.read_text().strip().splitlines():
        json.loads(line)


def test_cache_hits_are_recorded_into_the_checkpoint(tmp_path):
    workload = get_workload("gemm_dse")
    cache = RunCache()
    path = tmp_path / "ckpt.jsonl"
    ParallelSweep(cache=cache).run(workload, FULL_GRID, _configure, seed=7)
    # Second run with the cache AND a fresh checkpoint: every point is
    # a cache hit, and each lands in the checkpoint file too.
    ParallelSweep(cache=cache, checkpoint=path).run(
        workload, FULL_GRID, _configure, seed=7)
    assert cache.hits == 2
    # Third run with ONLY the checkpoint (cache gone): still no sims.
    third = ParallelSweep(checkpoint=path)
    third.run(workload, FULL_GRID, _configure, seed=7)
    assert third.checkpoint_resumed == 2


def test_checkpoint_feeds_the_cache_on_resume(tmp_path):
    workload = get_workload("gemm_dse")
    path = tmp_path / "ckpt.jsonl"
    ParallelSweep(checkpoint=path).run(workload, HALF_GRID, _configure,
                                       seed=7)
    cache = RunCache()
    resumed = ParallelSweep(checkpoint=path, cache=cache)
    resumed.run(workload, HALF_GRID, _configure, seed=7)
    assert resumed.checkpoint_resumed == 1
    assert len(cache) == 1  # the resumed result was promoted to the cache


def test_checkpoint_object_records_and_resumes(tmp_path):
    workload = get_workload("gemm_dse")
    path = tmp_path / "ckpt.jsonl"
    first = ParallelSweep(checkpoint=SweepCheckpoint(path)).run(
        workload, HALF_GRID, _configure, seed=7)
    assert path.exists()
    again = SweepCheckpoint(path)
    ParallelSweep(checkpoint=again).run(workload, HALF_GRID, _configure,
                                        seed=7)
    assert again.resumed == 1
    assert _rows(first) == _rows(
        ParallelSweep().run(workload, HALF_GRID, _configure, seed=7))


def test_on_point_fires_for_resumed_points(tmp_path):
    workload = get_workload("gemm_dse")
    path = tmp_path / "ckpt.jsonl"
    ParallelSweep(checkpoint=path).run(workload, FULL_GRID, _configure,
                                       seed=7)
    seen = []
    ParallelSweep(checkpoint=path).run(
        workload, FULL_GRID, _configure, seed=7,
        on_point=lambda done, total, p: seen.append((done, total, p.ok)))
    assert seen == [(1, 2, True), (2, 2, True)]
