"""Per-job retry policy, exponential backoff, and the circuit breaker.

Unit tests drive `JobQueue`/`CircuitBreaker` synchronously (injected
clocks, zero backoff); the integration tests go through a real server
on a thread, the same way ``repro submit --retries`` would.
"""

import time

import pytest

from repro.serve import ServeClient, start_server_thread
from repro.serve.jobs import CircuitBreaker, JobQueue, JobState
from repro.serve.workers import (
    SpecError,
    job_dedup_key,
    job_retry_policy,
    retry_delay,
)

FAILING_SPEC = {"workload": "no_such_kernel", "seed": 7}


# ----------------------------------------------------------------------
# Backoff schedule
# ----------------------------------------------------------------------
def test_retry_delay_is_exponential_with_cap():
    assert [retry_delay(0.5, n) for n in (1, 2, 3, 4)] \
        == [0.5, 1.0, 2.0, 4.0]
    # Capped, deterministically, no matter how high attempts climb.
    assert retry_delay(0.5, 10) == 30.0
    assert retry_delay(0.5, 50) == 30.0
    assert retry_delay(1.0, 3, cap_s=2.5) == 2.5


def test_job_retry_policy_reads_spec_defensively():
    assert job_retry_policy({}) == (0, 0.5)
    assert job_retry_policy({"retries": 3, "backoff_s": 2.0}) == (3, 2.0)
    assert job_retry_policy({"retries": -5}) == (0, 0.5)
    assert job_retry_policy({"retries": "nope", "backoff_s": "bad"}) \
        == (0, 0.5)


# ----------------------------------------------------------------------
# Queue-level retry mechanics
# ----------------------------------------------------------------------
def test_requeue_gates_claim_until_backoff_expires():
    queue = JobQueue()
    job = queue.submit("run", {})
    assert queue.claim() is job
    queue.requeue(job, delay_s=60.0, reason="crash")
    assert job.state == JobState.QUEUED
    assert queue.claim() is None  # still inside the backoff window
    job.not_before_s = time.time() - 1  # fast-forward the gate
    assert queue.claim() is job
    assert job.attempts == 2
    assert queue.retried == 1
    names = [e["event"] for e in job.events]
    assert names == ["queued", "running", "retrying", "running"]
    retrying = job.events[2]
    assert retrying["reason"] == "crash"
    assert retrying["attempt"] == 1


def test_backoff_does_not_block_other_jobs():
    queue = JobQueue()
    stuck = queue.submit("run", {"n": 1})
    other = queue.submit("run", {"n": 2})
    assert queue.claim() is stuck
    queue.requeue(stuck, delay_s=60.0)
    # The backing-off job must not head-of-line block the queue.
    assert queue.claim() is other


def test_followers_track_a_retrying_primary():
    queue = JobQueue()
    primary = queue.submit("run", {}, dedup_key="k")
    follower = queue.submit("run", {}, dedup_key="k")
    queue.claim()
    assert follower.state == JobState.RUNNING
    queue.requeue(primary, delay_s=0.0)
    assert follower.state == JobState.QUEUED
    assert queue.claim() is primary
    queue.resolve(primary, result={"v": 1})
    assert follower.result == {"v": 1}


# ----------------------------------------------------------------------
# Dedup-key fallback (narrowed catch)
# ----------------------------------------------------------------------
def test_dedup_fallback_reports_reason():
    reasons = []
    key = job_dedup_key("run", {"workload": "no_such_kernel"},
                        on_fallback=reasons.append)
    assert key.startswith("run:")
    assert len(reasons) == 1
    assert "KeyError" in reasons[0]
    # The fallback key is still deterministic: identical broken specs
    # coalesce with each other.
    again = job_dedup_key("run", {"workload": "no_such_kernel"})
    assert key == again


def test_dedup_fallback_covers_malformed_knobs():
    reasons = []
    job_dedup_key("run", {"workload": "gemm_dse", "ports": "many"},
                  on_fallback=reasons.append)
    assert len(reasons) == 1
    assert "ValueError" in reasons[0]


def test_unexpected_errors_are_not_swallowed(monkeypatch):
    import repro.serve.workers as workers

    def explode(spec):
        raise RuntimeError("server bug")

    monkeypatch.setattr(workers, "_spec_workload", explode)
    with pytest.raises(RuntimeError):
        job_dedup_key("run", {"workload": "gemm_dse"})


def test_bad_memory_knob_is_a_spec_error():
    reasons = []
    job_dedup_key("run", {"workload": "gemm_dse", "memory": "dram"},
                  on_fallback=reasons.append)
    assert "SpecError" in reasons[0]
    assert issubclass(SpecError, ValueError)


# ----------------------------------------------------------------------
# CircuitBreaker unit (injected clock)
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now


def test_breaker_opens_after_threshold_consecutive_failures():
    clock = FakeClock()
    breaker = CircuitBreaker(threshold=3, cooldown_s=30.0, clock=clock)
    for __ in range(2):
        breaker.record_failure("k")
    assert breaker.check("k") is None  # 2 < threshold: still closed
    breaker.record_failure("k")
    blocked = breaker.check("k")
    assert blocked is not None
    assert blocked["consecutive_failures"] == 3
    assert blocked["retry_in_s"] == pytest.approx(30.0)
    assert breaker.open_keys() == ["k"]


def test_success_resets_the_failure_streak():
    breaker = CircuitBreaker(threshold=2, clock=FakeClock())
    breaker.record_failure("k")
    breaker.record_success("k")
    breaker.record_failure("k")
    assert breaker.check("k") is None  # streak broken: never opened
    assert breaker.stats()["open_keys"] == 0


def test_half_open_admits_exactly_one_probe():
    clock = FakeClock()
    breaker = CircuitBreaker(threshold=1, cooldown_s=10.0, clock=clock)
    breaker.record_failure("k")
    assert breaker.check("k") is not None  # open
    clock.now += 10.0  # cooldown expired
    assert breaker.check("k") is None  # the single probe
    blocked = breaker.check("k")
    assert blocked is not None and blocked["probe_in_flight"]
    # Probe fails: re-opened for another full cooldown.
    breaker.record_failure("k")
    assert breaker.check("k") is not None
    clock.now += 10.0
    assert breaker.check("k") is None
    breaker.record_success("k")  # probe succeeds: fully closed
    assert breaker.check("k") is None
    assert breaker.stats()["tracked_keys"] == 0


def test_keys_are_independent():
    breaker = CircuitBreaker(threshold=1, clock=FakeClock())
    breaker.record_failure("bad")
    assert breaker.check("bad") is not None
    assert breaker.check("good") is None


# ----------------------------------------------------------------------
# Integration: retries and breaker through a real server
# ----------------------------------------------------------------------
def test_server_retries_failing_job_per_spec_policy():
    with start_server_thread(workers=1) as handle:
        client = ServeClient(port=handle.port)
        spec = dict(FAILING_SPEC, retries=2, backoff_s=0.0)
        job = client.wait(client.submit("run", spec)["id"])
        assert job["state"] == JobState.FAILED
        assert job["failure"]["attempts"] == 3  # 1 try + 2 retries
        assert job["attempts"] == 3
        events = list(client.events(job["id"], reconnect=False))
        names = [e["event"] for e in events]
        assert names.count("retrying") == 2
        assert names.count("running") == 3
        assert names[-1] == "failed"
        # The un-keyable spec announced why it fell back (satellite:
        # narrowed job_dedup_key catch records the reason).
        fallback = [e for e in events if e["event"] == "dedup_fallback"]
        assert len(fallback) == 1
        assert "KeyError" in fallback[0]["reason"]


def test_breaker_fails_fast_and_health_degrades():
    with start_server_thread(workers=1, breaker_threshold=1,
                             breaker_cooldown_s=3600.0) as handle:
        client = ServeClient(port=handle.port)
        first = client.wait(client.submit("run", dict(FAILING_SPEC))["id"])
        assert first["state"] == JobState.FAILED
        assert first["failure"]["error_type"] == "KeyError"
        # Identical spec again: the breaker is open — no worker burned.
        second = client.submit("run", dict(FAILING_SPEC))
        assert second["state"] == JobState.FAILED
        assert second["failure"]["error_type"] == "CircuitOpen"
        assert second["failure"]["reason"] == "circuit_open"
        assert client.healthz()["status"] == "degraded"
        assert client.healthz()["open_breakers"] == 1
        stats = client.stats()
        assert stats["breaker"]["open_keys"] == 1
        assert stats["queue"]["executed"] == 1  # the fast-fail never ran
        # A *different* spec is unaffected.
        ok = client.wait(client.submit("run", {
            "workload": "gemm_dse", "ports": 2, "unroll": 1})["id"])
        assert ok["state"] == JobState.DONE


def test_breaker_probe_after_cooldown_executes_for_real():
    with start_server_thread(workers=1, breaker_threshold=1,
                             breaker_cooldown_s=0.2) as handle:
        client = ServeClient(port=handle.port)
        client.wait(client.submit("run", dict(FAILING_SPEC))["id"])
        time.sleep(0.25)  # cooldown over: next submission is the probe
        probe = client.wait(client.submit("run", dict(FAILING_SPEC))["id"])
        assert probe["failure"]["error_type"] == "KeyError"  # really ran
        assert probe["attempts"] == 1
        assert client.stats()["queue"]["executed"] == 2


def test_backoff_expiry_wakes_an_idle_pool(monkeypatch):
    # Nothing else is submitted: only the retry's own timer can wake
    # the worker at the job's not_before_s, and nothing re-checks the
    # queue while the job backs off.
    gates = []
    claims = []
    requeue = JobQueue.requeue
    claim = JobQueue.claim

    def recording_requeue(self, job, delay_s=0.0, reason=None):
        requeue(self, job, delay_s=delay_s, reason=reason)
        gates.append(job.not_before_s)

    def recording_claim(self):
        job = claim(self)
        claims.append((bool(gates), job is not None))
        return job

    monkeypatch.setattr(JobQueue, "requeue", recording_requeue)
    monkeypatch.setattr(JobQueue, "claim", recording_claim)
    with start_server_thread(workers=1) as handle:
        client = ServeClient(port=handle.port)
        spec = dict(FAILING_SPEC, retries=1, backoff_s=0.3)
        job = client.wait(client.submit("run", spec)["id"], timeout=10.0)
        assert job["attempts"] == 2
        starts = [e["t"] for e in client.events(job["id"], reconnect=False)
                  if e["event"] == "running"]
    assert len(gates) == 1 and len(starts) == 2
    # Event times are rounded to the microsecond.
    assert gates[0] - 1e-6 <= starts[1] <= gates[0] + 0.25
    # While backing off, the queue is checked once: by the worker right
    # after its requeue.
    backing_off = claims[claims.index((True, False)):
                         claims.index((True, True))]
    assert backing_off == [(True, False)]
