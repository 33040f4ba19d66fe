"""Hardened ParallelSweep: failure isolation, strict mode, retry-safe
pool degradation with exponential backoff, and failed-row
serialization."""

import json

import pytest

from repro.core.config import DeviceConfig
from repro.core.occupancy import OccupancyTracker
from repro.exec import FailureRecord, ParallelSweep, SweepPointError
from repro.exec.parallel import SWEEP_BACKOFF_CAP_S, SweepPoint
from repro.workloads import get_workload

PORTS = [1, 2, 4, 8]

# Point-selective faults: ports==2 crashes (verify mismatch), ports==4
# livelocks (unbounded port stall, caught by the sweep watchdog).
FLIP_SPEC = "bit_flip@spm:access=1,addr=0x20000007,bit=6"
STALL_SPEC = "port_stall@memctrl:tick=50000"


def _configure(params):
    return dict(
        config=DeviceConfig(read_ports=params["ports"],
                            write_ports=max(1, params["ports"] // 2)),
        memory="spm", spm_bytes=1 << 16, spm_read_ports=params["ports"],
    )


def _faults(params):
    if params["ports"] == 2:
        return FLIP_SPEC
    if params["ports"] == 4:
        return STALL_SPEC
    return None


def _run_hardened(**kwargs):
    executor = ParallelSweep(faults=_faults,
                             watchdog={"livelock_cycles": 20000}, **kwargs)
    return executor.run(get_workload("gemm_dse"), {"ports": PORTS}, _configure)


# -- the acceptance scenario -------------------------------------------------
def test_sweep_isolates_crashing_and_hanging_points():
    clean = ParallelSweep(workers=1).run(
        get_workload("gemm_dse"), {"ports": PORTS}, _configure)
    points = _run_hardened(workers=1)
    assert [p.ok for p in points] == [True, False, False, True]
    crash, hang = points[1].failure, points[2].failure
    assert crash.error_type == "AssertionError"
    assert crash.reason == "crash"
    assert hang.error_type == "SimulationHang"
    assert hang.reason == "hang"
    # Every healthy row is byte-identical to the clean serial sweep.
    for clean_point, point in zip(clean, points):
        if point.ok:
            assert json.dumps(point.result.to_dict(), sort_keys=True) == \
                json.dumps(clean_point.result.to_dict(), sort_keys=True)


def test_parallel_failures_match_serial_failures():
    serial = _run_hardened(workers=1)
    parallel = _run_hardened(workers=2)
    for s, p in zip(serial, parallel):
        assert s.ok == p.ok
        if s.ok:
            assert json.dumps(p.result.to_dict(), sort_keys=True) == \
                json.dumps(s.result.to_dict(), sort_keys=True)
        else:
            assert p.failure.error_type == s.failure.error_type
            assert p.failure.reason == s.failure.reason


def test_strict_mode_raises_on_first_failure():
    executor = ParallelSweep(faults=_faults, strict=True,
                             watchdog={"livelock_cycles": 20000})
    with pytest.raises(SweepPointError) as excinfo:
        executor.run(get_workload("gemm_dse"), {"ports": PORTS}, _configure)
    assert excinfo.value.params == {"ports": 2}
    assert excinfo.value.failure.error_type == "AssertionError"


def test_failed_points_skip_cache_and_healthy_points_use_it(tmp_path):
    from repro.exec import RunCache

    cache = RunCache(tmp_path / "runs")
    points = _run_hardened(workers=1, cache=cache)
    # Only the two healthy points were cached.
    assert len(cache) == 2
    again = _run_hardened(workers=1, cache=cache)
    assert cache.hits == 2
    for first, second in zip(points, again):
        assert first.ok == second.ok


def test_failed_cache_write_is_not_mistaken_for_a_pool_crash():
    from repro.exec import RunCache

    class FailingOnce(RunCache):
        failed = False

        def put(self, key, result):
            if not self.failed:
                self.failed = True
                raise OSError("disk full")
            super().put(key, result)

    cache = FailingOnce()
    # The point is stored as it is harvested from the pool; the write
    # error must surface, not be retried away as a dead worker.
    with pytest.raises(OSError, match="disk full"):
        ParallelSweep(workers=2, cache=cache).run(
            get_workload("gemm_dse"), {"ports": [1, 2]}, _configure)


# -- retry backoff -----------------------------------------------------------
def test_retry_backoff_schedule_is_exponential_and_capped():
    executor = ParallelSweep(retry_backoff_s=0.625)
    assert [executor.retry_delay(n) for n in (1, 2, 3, 4, 5, 6)] \
        == [0.625, 1.25, 2.5, 5.0, 5.0, 5.0]
    assert SWEEP_BACKOFF_CAP_S == 5.0
    # Deterministic: the same attempt always waits the same time.
    assert executor.retry_delay(3) == executor.retry_delay(3)


def test_backoff_defaults_start_where_the_linear_schedule_did():
    executor = ParallelSweep()
    assert executor.retry_delay(1) == 0.1
    assert executor.retry_delay(100) == SWEEP_BACKOFF_CAP_S


# -- failure records ---------------------------------------------------------
def test_failure_record_round_trip():
    try:
        raise ValueError("boom at point 3")
    except ValueError as exc:
        record = FailureRecord.from_exception(exc, attempts=2)
    assert record.error_type == "ValueError"
    assert record.reason == "crash"
    assert record.attempts == 2
    assert any("boom at point 3" in line for line in record.traceback_tail)
    revived = FailureRecord.from_dict(json.loads(json.dumps(record.to_dict())))
    assert revived == record
    assert "ValueError: boom at point 3 (attempt 2)" == record.summary()


def test_failure_record_classifies_hangs():
    from repro.sim.eventq import SimulationHang

    hang = FailureRecord.from_exception(SimulationHang("livelock", 100))
    assert hang.reason == "hang"
    timeout = FailureRecord.from_exception(SimulationHang("wallclock", 100))
    assert timeout.reason == "timeout"


# -- failed-row serialization ------------------------------------------------
def test_failed_sweep_point_serializes_a_valid_row():
    failure = FailureRecord("RuntimeError", "it broke")
    point = SweepPoint(params={"ports": 4}, failure=failure)
    assert not point.ok
    row = point.record()
    assert row["status"] == "failed"
    assert row["error"].startswith("RuntimeError: it broke")
    assert row["cycles"] == 0
    assert row["runtime_us"] == 0.0
    assert row["power_mw"] == 0.0
    assert row["stall_fraction"] == 0.0
    # Every value is CSV/JSON-safe.
    json.dumps(row)


def test_zero_cycle_occupancy_fractions_are_defined():
    tracker = OccupancyTracker()
    assert tracker.stall_fraction() == 0.0
    assert tracker.issue_fraction() == 0.0
    assert tracker.fu_occupancy("fp_mul", 2) == 0.0
    # Idle-only trackers (cycles ticked, nothing active) are also safe.
    idle = OccupancyTracker(cycles=10, idle_cycles=10)
    assert idle.stall_fraction() == 0.0
    assert idle.issue_fraction() == 0.0
