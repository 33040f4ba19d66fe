"""Job records, the dedup-aware priority queue, and the circuit breaker.

A `Job` is one client request: a kind (compile/run/sweep/analyze), a
JSON spec, a priority, and a lifecycle
(``queued -> running -> done | failed``, or ``cancelled`` before it
ever runs).  Every state change and every progress tick lands on the
job's ordered event log, which is what the SSE endpoint streams.

`JobQueue` holds the jobs.  Its defining feature is **request dedup**:
each job carries a content-addressed ``dedup_key`` (for run jobs, the
run-cache key itself — see `repro.serve.workers.job_dedup_key`), and a
submission whose key matches a still-active job does not queue a second
execution.  It becomes a *follower*: a full job record of its own that
resolves (result, failure, or cancellation of the primary) the moment
the primary resolves.  Twenty identical submissions cost one
simulation.

The queue is deliberately lock-free: every mutation happens on the
server's event loop (executor threads only append progress events),
and the unit tests drive it synchronously.  With a
`repro.serve.journal.JobJournal` attached, every mutation is also
written to the append-only journal, which is what lets a restarted
server pick the queue back up (see ``adopt``).

Nothing in the server polls.  Every event a job publishes goes through
the queue's one `Job.sink`, which journals it and then sets two kinds
of `Wakeup`: those of the SSE streams (and a drain) registered on the
job, and — for an event after which a job may be claimable — the
worker pool's.

`CircuitBreaker` is the queue's fail-fast policy: after K consecutive
failures of one dedup key the key is *open* — identical submissions
fail immediately with a structured reason instead of burning a worker
— until a cooldown expires and a single half-open probe is let
through.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.exec.failures import FailureRecord


class JobState:
    """The five job states (plain strings, JSON-friendly)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    ALL = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)
    #: States a job can still leave.
    ACTIVE = (QUEUED, RUNNING)


#: Job kinds the worker pool knows how to execute.
JOB_KINDS = ("compile", "run", "sweep", "analyze")

#: Events after which a job may be claimable: submit, requeue, adopt and
#: promote publish one each.  ``resume`` publishes nothing and wakes the
#: pool itself.
CLAIMABLE_EVENTS = frozenset({"queued", "retrying", "recovered", "promoted"})


class Wakeup:
    """A level-triggered wakeup for asyncio waiters, settable from any
    thread.

    Made on the event loop.  `set` on the loop thread sets the
    underlying `asyncio.Event` at once; from another thread (a job body
    publishing progress in an executor) it hops over with
    ``loop.call_soon_threadsafe``.  ``set(at=t)`` sets it at wall time
    ``t`` instead: a retry's ``not_before_s``.
    """

    def __init__(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._thread = threading.get_ident()
        self._event = asyncio.Event()

    def set(self, at: Optional[float] = None) -> None:
        if threading.get_ident() != self._thread:
            try:
                self._loop.call_soon_threadsafe(self.set, at)
            except RuntimeError:
                pass  # the loop has closed: nobody is waiting any more
            return
        delay = at - time.time() if at is not None else 0.0
        if delay > 0:
            # Re-checked when the timer fires: the loop's clock is not
            # the wall clock that ``claim`` compares against.
            self._loop.call_later(delay, self.set, at)
        else:
            self._event.set()

    async def wait(self) -> None:
        """Return once set, cleared for the next wait.  A waiter
        re-reads what it waits on after this returns, so a `set` that
        lands between its last read and this wait is never lost."""
        await self._event.wait()
        self._event.clear()


@dataclass
class Job:
    """One submitted request and everything that happened to it."""

    id: str
    kind: str
    spec: dict
    priority: int = 0
    state: str = JobState.QUEUED
    #: Content hash of (kind, spec); identical active requests coalesce.
    dedup_key: Optional[str] = None
    #: Set on followers: the id of the job actually executing.
    deduped_of: Optional[str] = None
    #: True when the result came from the run cache (or a dedup primary
    #: that itself hit the cache) instead of a fresh simulation.
    cache_hit: bool = False
    result: Optional[dict] = None
    failure: Optional[dict] = None
    submitted_s: float = field(default_factory=time.time)
    started_s: Optional[float] = None
    finished_s: Optional[float] = None
    #: How many times a worker has claimed this job (retries increment).
    attempts: int = 0
    #: Retry backoff gate: ``claim()`` skips the job until this time.
    not_before_s: Optional[float] = None
    #: Ordered progress log: [{"seq": n, "t": ..., "event": ..., ...}].
    events: list = field(default_factory=list)
    #: Hook called with ``(job, event)`` per publish; the queue's
    #: `JobQueue._sink` journals the event and wakes its waiters.
    sink: Optional[Callable] = field(default=None, repr=False, compare=False)
    #: `Wakeup`s of the SSE streams (and a drain) following this job.
    waiters: set = field(default_factory=set, repr=False, compare=False)

    @property
    def terminal(self) -> bool:
        return self.state not in JobState.ACTIVE

    def publish(self, event: str, **detail) -> None:
        """Append one progress event (thread-safe: a bare list append),
        then hand it to the sink."""
        record = {
            "seq": len(self.events),
            "t": round(time.time(), 6),
            "event": event,
            **detail,
        }
        self.events.append(record)
        sink = self.sink
        if sink is not None:
            sink(self, record)

    def to_dict(self, include_result: bool = True) -> dict:
        payload = {
            "id": self.id,
            "kind": self.kind,
            "state": self.state,
            "priority": self.priority,
            "dedup_key": self.dedup_key,
            "deduped_of": self.deduped_of,
            "cache_hit": self.cache_hit,
            "submitted_s": self.submitted_s,
            "started_s": self.started_s,
            "finished_s": self.finished_s,
            "attempts": self.attempts,
            "events": len(self.events),
            "failure": self.failure,
        }
        if include_result:
            payload["result"] = self.result
        return payload

    # -- journal round trip --------------------------------------------
    def to_journal(self) -> dict:
        """Full, lossless payload (unlike `to_dict`, includes the spec
        and the event log) — what the write-ahead journal persists."""
        return {
            "id": self.id,
            "kind": self.kind,
            "spec": self.spec,
            "priority": self.priority,
            "state": self.state,
            "dedup_key": self.dedup_key,
            "deduped_of": self.deduped_of,
            "cache_hit": self.cache_hit,
            "result": self.result,
            "failure": self.failure,
            "submitted_s": self.submitted_s,
            "started_s": self.started_s,
            "finished_s": self.finished_s,
            "attempts": self.attempts,
            "events": list(self.events),
        }

    @classmethod
    def from_journal(cls, payload: dict) -> "Job":
        state = payload.get("state", JobState.QUEUED)
        if state not in JobState.ALL:
            raise ValueError(f"unknown job state {state!r}")
        return cls(
            id=payload["id"],
            kind=payload["kind"],
            spec=dict(payload.get("spec") or {}),
            priority=int(payload.get("priority", 0)),
            state=state,
            dedup_key=payload.get("dedup_key"),
            deduped_of=payload.get("deduped_of"),
            cache_hit=bool(payload.get("cache_hit", False)),
            result=payload.get("result"),
            failure=payload.get("failure"),
            submitted_s=float(payload.get("submitted_s") or 0.0),
            started_s=payload.get("started_s"),
            finished_s=payload.get("finished_s"),
            attempts=int(payload.get("attempts", 0)),
            events=list(payload.get("events") or []),
        )


class JobQueue:
    """Priority queue of jobs with content-addressed request dedup.

    ``claim()`` hands out the highest-priority queued job (FIFO within
    a priority level); ``resolve()`` finishes it and fans the outcome
    out to every follower that coalesced onto it.  ``pause()`` stops
    ``claim()`` from yielding work — submissions still queue — which is
    both an operational drain switch and what makes cancellation/dedup
    deterministically testable.  ``requeue()`` puts a failed job back
    with a backoff gate (per-job retry policy), and ``adopt()`` inserts
    a job recovered from the journal after a restart.  ``work`` is the
    worker pool's `Wakeup` (None while no pool runs): set whenever a
    job may have become claimable, at a retry's ``not_before_s`` for a
    job in backoff.
    """

    def __init__(self, journal=None) -> None:
        self.jobs: dict[str, Job] = {}
        self.journal = journal
        self._heap: list[tuple[int, int, str]] = []
        self._counter = itertools.count()
        #: dedup_key -> id of the active (queued/running) primary.
        self._active_by_key: dict[str, str] = {}
        #: primary id -> follower ids awaiting its outcome.
        self._followers: dict[str, list[str]] = {}
        self.paused = False
        self.work: Optional[Wakeup] = None
        self.dedup_hits = 0
        self.executed = 0
        self.cancelled = 0
        self.retried = 0

    # -- submission ----------------------------------------------------
    def submit(self, kind: str, spec: dict, priority: int = 0,
               dedup_key: Optional[str] = None) -> Job:
        """Queue a request; an identical active one absorbs it instead."""
        job = Job(id=f"j{next(self._counter):06d}", kind=kind, spec=spec,
                  priority=priority, dedup_key=dedup_key)
        self.jobs[job.id] = job
        if self.journal is not None:
            # Submit record first, then the event sink: replay must see
            # the job before any of its events.
            self.journal.record_submit(job)
        job.sink = self._sink
        job.publish("queued")
        primary_id = (self._active_by_key.get(dedup_key)
                      if dedup_key is not None else None)
        if primary_id is not None:
            primary = self.jobs[primary_id]
            job.deduped_of = primary_id
            job.state = primary.state  # mirrors queued/running
            self._followers.setdefault(primary_id, []).append(job.id)
            self.dedup_hits += 1
            job.publish("deduped", of=primary_id)
            self._journal_state(job)
            return job
        if dedup_key is not None:
            self._active_by_key[dedup_key] = job.id
        heapq.heappush(self._heap, (-priority, next(self._counter), job.id))
        return job

    def finish_immediately(self, job: Job, result: dict,
                           cache_hit: bool = False) -> None:
        """Short-circuit a job at submit time (run-cache hit)."""
        job.started_s = job.finished_s = time.time()
        job.state = JobState.DONE
        job.result = result
        job.cache_hit = cache_hit
        job.publish("cache_hit" if cache_hit else "done")
        self._release(job)
        self._resolve_followers(job)
        self._journal_state(job, via="immediate")

    def fail_immediately(self, job: Job, failure: FailureRecord) -> None:
        """Short-circuit a job at submit time with a structured failure
        (the circuit breaker's fail-fast path)."""
        job.started_s = job.finished_s = time.time()
        job.state = JobState.FAILED
        job.failure = failure.to_dict()
        job.publish(JobState.FAILED, reason=failure.reason)
        self._release(job)
        self._resolve_followers(job)
        self._journal_state(job, via="immediate")

    # -- worker side ---------------------------------------------------
    def claim(self) -> Optional[Job]:
        """Pop the next runnable job, or None (empty, paused, or every
        queued job is inside its retry-backoff window)."""
        if self.paused:
            return None
        now = time.time()
        deferred: list[tuple[int, int, str]] = []
        job: Optional[Job] = None
        while self._heap:
            entry = heapq.heappop(self._heap)
            candidate = self.jobs[entry[2]]
            if candidate.state != JobState.QUEUED:
                continue  # cancelled while queued
            if (candidate.not_before_s is not None
                    and candidate.not_before_s > now):
                deferred.append(entry)  # still backing off; keep looking
                continue
            job = candidate
            break
        for entry in deferred:
            # Original (priority, counter) entries: FIFO order survives.
            heapq.heappush(self._heap, entry)
        if job is None:
            return None
        job.state = JobState.RUNNING
        job.started_s = time.time()
        job.attempts += 1
        job.not_before_s = None
        job.publish("running", attempt=job.attempts)
        self._journal_state(job)
        for follower in self._follower_jobs(job):
            follower.state = JobState.RUNNING
            follower.started_s = job.started_s
            follower.publish("running")
            self._journal_state(follower)
        return job

    def resolve(self, job: Job, result: Optional[dict] = None,
                failure: Optional[FailureRecord] = None,
                cache_hit: bool = False) -> None:
        """Finish a claimed job and fan the outcome out to followers."""
        job.finished_s = time.time()
        job.result = result
        job.failure = failure.to_dict() if failure is not None else None
        job.cache_hit = cache_hit
        job.state = JobState.FAILED if failure is not None else JobState.DONE
        job.publish(job.state)
        self.executed += 1
        self._release(job)
        self._resolve_followers(job)
        self._journal_state(job, via="resolve")

    def requeue(self, job: Job, delay_s: float = 0.0,
                reason: Optional[str] = None) -> None:
        """Put a failed attempt back in the queue with a backoff gate
        (the per-job retry policy).  The dedup key stays active, so
        identical submissions keep coalescing onto the retrying job."""
        job.state = JobState.QUEUED
        job.not_before_s = time.time() + delay_s if delay_s > 0 else None
        detail = {"attempt": job.attempts, "delay_s": round(delay_s, 3)}
        if reason is not None:
            detail["reason"] = reason
        job.publish("retrying", **detail)
        self.retried += 1
        heapq.heappush(self._heap, (-job.priority, next(self._counter),
                                    job.id))
        self._journal_state(job, via="retry")
        for follower in self._follower_jobs(job):
            follower.state = JobState.QUEUED
            follower.publish("retrying", of=job.id)
            self._journal_state(follower)

    # -- recovery ------------------------------------------------------
    def adopt(self, job: Job) -> bool:
        """Insert a job recovered from the journal; True if re-queued.

        Terminal jobs are kept verbatim so GET still serves their
        results.  Jobs that were ``queued``/``running`` at crash time
        go back in the queue (keeping their attempt counter — the next
        ``claim`` increments it), and active jobs sharing a dedup key
        re-coalesce: first adopted becomes primary, the rest followers.
        """
        self.jobs[job.id] = job
        job.sink = self._sink
        if job.terminal:
            return False
        was = job.state
        primary_id = (self._active_by_key.get(job.dedup_key)
                      if job.dedup_key is not None else None)
        if primary_id is not None and primary_id != job.id:
            primary = self.jobs[primary_id]
            job.deduped_of = primary_id
            job.state = primary.state
            self._followers.setdefault(primary_id, []).append(job.id)
            job.publish("recovered", coalesced_onto=primary_id)
            self._journal_state(job)
            return True
        job.deduped_of = None
        job.state = JobState.QUEUED
        job.not_before_s = None
        if job.dedup_key is not None:
            self._active_by_key[job.dedup_key] = job.id
        heapq.heappush(self._heap, (-job.priority, next(self._counter),
                                    job.id))
        job.publish("recovered", was=was, attempts_so_far=job.attempts)
        self._journal_state(job)
        return True

    def bump_counter(self, floor: int) -> None:
        """Ensure future ids/heap counters start at or above ``floor``."""
        current = next(self._counter)
        self._counter = itertools.count(max(current, int(floor)))

    def restore_counters(self, counters: dict) -> None:
        self.dedup_hits = int(counters.get("dedup_hits", 0))
        self.executed = int(counters.get("executed", 0))
        self.cancelled = int(counters.get("cancelled", 0))
        self.retried = int(counters.get("retried", 0))

    def counters(self) -> dict:
        return {
            "dedup_hits": self.dedup_hits,
            "executed": self.executed,
            "cancelled": self.cancelled,
            "retried": self.retried,
        }

    # -- cancellation --------------------------------------------------
    def cancel(self, job_id: str) -> Job:
        """Cancel a queued job (a follower detaches; a running one is
        past the point of no return and keeps running)."""
        job = self.jobs[job_id]
        if job.terminal:
            return job
        if job.state == JobState.RUNNING:
            return job  # can't un-run a simulation; report the state
        if job.deduped_of is not None:
            followers = self._followers.get(job.deduped_of, [])
            if job_id in followers:
                followers.remove(job_id)
        else:
            self._release(job)
            # Followers of a cancelled primary are promoted: the first
            # still-queued one becomes the new primary.
            self._promote_followers(job)
        job.state = JobState.CANCELLED
        job.finished_s = time.time()
        job.publish("cancelled")
        self.cancelled += 1
        self._journal_state(job, via="cancel")
        return job

    # -- internals -----------------------------------------------------
    def _sink(self, job: Job, record: dict) -> None:
        """`Job.sink` of every job in the queue: journal the event, then
        wake the job's waiters and, if the job may now be claimable,
        the pool.  Runs on the publishing thread; claimable events are
        all published on the loop."""
        if self.journal is not None:
            self.journal.record_event_sink(job, record)
        # tuple() copies in one step, so a waiter the loop registers
        # meanwhile cannot break the iteration.
        for waiter in tuple(job.waiters):
            waiter.set()
        if self.work is not None and record["event"] in CLAIMABLE_EVENTS:
            self.work.set(at=job.not_before_s)

    def _journal_state(self, job: Job, via: Optional[str] = None) -> None:
        if self.journal is not None:
            self.journal.record_state(job, via=via)

    def _follower_jobs(self, primary: Job) -> list[Job]:
        return [self.jobs[fid] for fid in self._followers.get(primary.id, [])]

    def _release(self, job: Job) -> None:
        if (job.dedup_key is not None
                and self._active_by_key.get(job.dedup_key) == job.id):
            del self._active_by_key[job.dedup_key]

    def _resolve_followers(self, primary: Job) -> None:
        for follower in self._follower_jobs(primary):
            follower.state = primary.state
            follower.result = primary.result
            follower.failure = primary.failure
            follower.cache_hit = primary.cache_hit
            follower.finished_s = primary.finished_s
            follower.publish(primary.state, shared_with=primary.id)
            self._journal_state(follower)
        self._followers.pop(primary.id, None)

    def _promote_followers(self, cancelled_primary: Job) -> None:
        followers = self._followers.pop(cancelled_primary.id, [])
        queued = [fid for fid in followers
                  if self.jobs[fid].state == JobState.QUEUED]
        if not queued:
            return
        new_primary = self.jobs[queued[0]]
        new_primary.deduped_of = None
        if new_primary.dedup_key is not None:
            self._active_by_key[new_primary.dedup_key] = new_primary.id
        heapq.heappush(self._heap, (-new_primary.priority,
                                    next(self._counter), new_primary.id))
        new_primary.publish("promoted", was_follower_of=cancelled_primary.id)
        self._journal_state(new_primary)
        rest = queued[1:]
        if rest:
            self._followers[new_primary.id] = rest
            for fid in rest:
                self.jobs[fid].deduped_of = new_primary.id
                self._journal_state(self.jobs[fid])

    # -- ops -----------------------------------------------------------
    def pause(self) -> None:
        self.paused = True

    def resume(self) -> None:
        self.paused = False
        if self.work is not None:
            self.work.set()

    def running(self) -> list[Job]:
        """Primaries currently executing (what a drain waits on)."""
        return [job for job in self.jobs.values()
                if job.state == JobState.RUNNING and job.deduped_of is None]

    def depth(self) -> int:
        """Jobs still waiting to run (excludes followers and cancels)."""
        return sum(1 for job in self.jobs.values()
                   if job.state == JobState.QUEUED and job.deduped_of is None)

    def stats(self) -> dict:
        by_state: dict[str, int] = {state: 0 for state in JobState.ALL}
        by_kind: dict[str, int] = {}
        for job in self.jobs.values():
            by_state[job.state] = by_state.get(job.state, 0) + 1
            by_kind[job.kind] = by_kind.get(job.kind, 0) + 1
        return {
            "depth": self.depth(),
            "paused": self.paused,
            "jobs": len(self.jobs),
            "by_state": by_state,
            "by_kind": by_kind,
            "dedup_hits": self.dedup_hits,
            "executed": self.executed,
            "cancelled": self.cancelled,
            "retried": self.retried,
        }


class CircuitBreaker:
    """Per-dedup-key fail-fast after K consecutive failures.

    States per key: *closed* (normal), *open* (``threshold`` consecutive
    failures — submissions fail immediately with a structured reason),
    *half-open* (cooldown expired — exactly one probe submission is let
    through; its success closes the breaker, its failure re-opens it
    for another cooldown).

    Breaker state is deliberately in-memory only: a restart starts
    every key closed, and the journal-recovered retries re-prove the
    failure pattern quickly if it persists.  ``clock`` is injectable
    for deterministic tests.
    """

    def __init__(self, threshold: int = 5, cooldown_s: float = 30.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.threshold = max(1, int(threshold))
        self.cooldown_s = float(cooldown_s)
        self._clock = clock
        #: key -> {"fails": n, "opened_at": t|None, "probe": bool}
        self._keys: dict[str, dict] = {}

    def check(self, key: str) -> Optional[dict]:
        """None if the key may execute; a structured block reason if not.

        Calling this *admits* the half-open probe — only call it when
        the submission would actually queue.
        """
        entry = self._keys.get(key)
        if entry is None or entry["opened_at"] is None:
            return None
        elapsed = self._clock() - entry["opened_at"]
        if elapsed >= self.cooldown_s and not entry["probe"]:
            entry["probe"] = True  # one probe through; others stay blocked
            return None
        return {
            "consecutive_failures": entry["fails"],
            "cooldown_s": self.cooldown_s,
            "retry_in_s": round(max(0.0, self.cooldown_s - elapsed), 3),
            "probe_in_flight": entry["probe"],
        }

    def record_failure(self, key: str) -> None:
        entry = self._keys.setdefault(
            key, {"fails": 0, "opened_at": None, "probe": False})
        entry["fails"] += 1
        entry["probe"] = False
        if entry["fails"] >= self.threshold:
            entry["opened_at"] = self._clock()

    def record_success(self, key: str) -> None:
        self._keys.pop(key, None)

    def open_keys(self) -> list[str]:
        return [key for key, entry in self._keys.items()
                if entry["opened_at"] is not None]

    def stats(self) -> dict:
        return {
            "threshold": self.threshold,
            "cooldown_s": self.cooldown_s,
            "tracked_keys": len(self._keys),
            "open_keys": len(self.open_keys()),
        }
