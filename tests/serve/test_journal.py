"""JobJournal unit tests: WAL round trips, compaction, corrupt tails.

Every test drives a real `JobQueue` with a journal attached, then
rebuilds a *fresh* queue from the same state dir — the exact code path
a restarted ``repro serve --state-dir`` takes.
"""

import json
import threading

import repro.serve.journal as journal_module
from repro.exec.failures import FailureRecord
from repro.serve.jobs import JobQueue, JobState
from repro.serve.journal import JOURNAL_VERSION, JobJournal, recover_queue


def make_failure(message="boom"):
    try:
        raise ValueError(message)
    except ValueError as exc:
        return FailureRecord.from_exception(exc)


def fresh(state_dir, **kwargs):
    """A (queue, journal) pair over ``state_dir``, journal attached."""
    journal = JobJournal(state_dir, **kwargs)
    queue = JobQueue(journal=journal)
    return queue, journal


def recovered(state_dir, **kwargs):
    """Simulate a process restart: new journal, new queue, replay."""
    queue, journal = fresh(state_dir, **kwargs)
    summary = recover_queue(queue, journal)
    return queue, journal, summary


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------
def test_terminal_job_survives_restart_verbatim(tmp_path):
    queue, journal = fresh(tmp_path)
    job = queue.submit("run", {"workload": "gemm_dse"}, dedup_key="k")
    queue.claim()
    job.publish("point", done=1, total=2)
    queue.resolve(job, result={"cycles": 99}, cache_hit=False)
    journal.close()

    queue2, __, summary = recovered(tmp_path)
    assert summary["recovered_jobs"] == 1
    assert summary["requeued_jobs"] == 0  # terminal: kept, not re-queued
    twin = queue2.jobs[job.id]
    assert twin.state == JobState.DONE
    assert twin.result == {"cycles": 99}
    assert twin.spec == {"workload": "gemm_dse"}
    assert [e["event"] for e in twin.events] \
        == ["queued", "running", "point", "done"]
    assert queue2.executed == 1  # counters replay too
    assert queue2.claim() is None  # nothing runnable


def test_active_jobs_are_requeued_with_attempts_kept(tmp_path):
    queue, journal = fresh(tmp_path)
    retried = queue.submit("run", {"n": 1})
    assert queue.claim() is retried
    queue.requeue(retried, delay_s=0.0)  # attempts=1, back of the queue
    assert queue.claim() is retried      # attempts=2
    queue.resolve(retried, result={})
    running = queue.submit("run", {"n": 2})
    assert queue.claim() is running      # running at "crash" time
    journal.close()  # SIGKILL would leave the same files behind

    queue2, __, summary = recovered(tmp_path)
    assert summary["requeued_jobs"] == 1
    twin = queue2.jobs[running.id]
    assert twin.state == JobState.QUEUED
    assert twin.attempts == 1  # kept across the restart
    assert twin.events[-1]["event"] == "recovered"
    assert twin.events[-1]["was"] == "running"
    assert queue2.claim() is twin
    assert twin.attempts == 2


def test_followers_recoalesce_after_restart(tmp_path):
    queue, journal = fresh(tmp_path)
    primary = queue.submit("run", {"x": 1}, dedup_key="dk")
    follower = queue.submit("run", {"x": 1}, dedup_key="dk")
    assert follower.deduped_of == primary.id
    journal.close()

    queue2, __, summary = recovered(tmp_path)
    assert summary["requeued_jobs"] == 2
    p2, f2 = queue2.jobs[primary.id], queue2.jobs[follower.id]
    # First adopted becomes the primary; the other re-attaches.
    assert p2.deduped_of is None
    assert f2.deduped_of == p2.id
    assert queue2.claim() is p2
    assert queue2.claim() is None  # the follower never runs
    queue2.resolve(p2, result={"v": 7})
    assert f2.state == JobState.DONE
    assert f2.result == {"v": 7}


def test_recovered_ids_never_collide(tmp_path):
    queue, journal = fresh(tmp_path)
    old = queue.submit("run", {})
    journal.close()

    queue2, __, __ = recovered(tmp_path)
    new = queue2.submit("run", {})
    assert new.id != old.id
    assert new.id > old.id  # zero-padded ids sort lexically


def test_cancelled_job_stays_cancelled(tmp_path):
    queue, journal = fresh(tmp_path)
    job = queue.submit("run", {})
    queue.cancel(job.id)
    journal.close()

    queue2, __, summary = recovered(tmp_path)
    assert summary["requeued_jobs"] == 0
    assert queue2.jobs[job.id].state == JobState.CANCELLED
    assert queue2.cancelled == 1
    assert queue2.claim() is None


def test_failure_payload_round_trips(tmp_path):
    queue, journal = fresh(tmp_path)
    job = queue.submit("run", {})
    queue.claim()
    queue.resolve(job, failure=make_failure("kaboom"))
    journal.close()

    queue2, __, __ = recovered(tmp_path)
    twin = queue2.jobs[job.id]
    assert twin.state == JobState.FAILED
    assert twin.failure["error_type"] == "ValueError"
    assert twin.failure["message"] == "kaboom"


# ----------------------------------------------------------------------
# Snapshot + compaction
# ----------------------------------------------------------------------
def test_compaction_truncates_journal_and_preserves_state(tmp_path):
    queue, journal = fresh(tmp_path, snapshot_every=5)
    jobs = [queue.submit("run", {"n": n}) for n in range(3)]
    for job in jobs[:2]:
        queue.claim()
        queue.resolve(job, result={"n": job.spec["n"]})
    assert journal.should_compact()
    size_before = journal.journal_path.stat().st_size
    journal.compact(queue)
    assert journal.snapshot_path.exists()
    assert journal.journal_path.stat().st_size < size_before
    assert not journal.should_compact()

    # More activity lands in the (now small) journal on top of the
    # snapshot; replaying both must be idempotent.
    queue.claim()
    queue.resolve(jobs[2], result={"n": 2})
    journal.close()

    queue2, __, __ = recovered(tmp_path, snapshot_every=5)
    assert len(queue2.jobs) == 3
    for n, job in enumerate(jobs):
        assert queue2.jobs[job.id].result == {"n": n}
    assert queue2.executed == 3


def test_event_published_during_compaction_survives(tmp_path, monkeypatch):
    """A worker thread publishes between the snapshot write and the
    journal truncation: the event must still be recovered."""
    queue, journal = fresh(tmp_path)
    job = queue.submit("run", {})
    queue.claim()
    worker = threading.Thread(target=job.publish, args=("point",))
    publish = journal_module.publish

    def publish_then_race(path, data):
        publish(path, data)
        worker.start()
        # Long enough for an unguarded append to land before the
        # truncation; a guarded one waits for the lock instead.
        worker.join(timeout=1.0)

    monkeypatch.setattr(journal_module, "publish", publish_then_race)
    journal.compact(queue)
    worker.join(timeout=10.0)
    assert not worker.is_alive()
    journal.close()
    assert [e["event"] for e in job.events] == ["queued", "running", "point"]

    queue2, __, __ = recovered(tmp_path)
    assert [e["event"] for e in queue2.jobs[job.id].events][:3] \
        == ["queued", "running", "point"]


def test_streamed_snapshot_is_the_one_shot_document(tmp_path):
    queue, journal = fresh(tmp_path)
    jobs = [queue.submit("run", {"n": n}) for n in range(3)]
    queue.claim()
    queue.resolve(jobs[0], result={"cycles": 1.5, "stats": {"a": [1, 2]}})
    journal.compact(queue)
    text = journal.snapshot_path.read_text()
    doc = json.loads(text)
    assert text == json.dumps(doc, sort_keys=True)
    assert doc["jobs"] == [job.to_journal() for job in queue.jobs.values()]
    assert doc["counters"] == queue.counters()
    assert doc["version"] == JOURNAL_VERSION


def test_recovery_after_snapshot_only(tmp_path):
    queue, journal = fresh(tmp_path)
    job = queue.submit("run", {})
    queue.claim()
    queue.resolve(job, result={"ok": 1})
    journal.compact(queue)
    journal.close()
    assert journal.journal_path.stat().st_size == 0

    queue2, __, __ = recovered(tmp_path)
    assert queue2.jobs[job.id].result == {"ok": 1}


# ----------------------------------------------------------------------
# Corrupt-tail tolerance
# ----------------------------------------------------------------------
def test_truncated_tail_is_quarantined_not_fatal(tmp_path):
    queue, journal = fresh(tmp_path)
    done = queue.submit("run", {"good": True})
    queue.claim()
    queue.resolve(done, result={"ok": 1})
    journal.close()
    # A SIGKILL mid-append leaves a cut final line.
    with open(journal.journal_path, "ab") as fh:
        fh.write(b'{"rec":"state","id":"j000000","sta')

    queue2, journal2, summary = recovered(tmp_path)
    assert queue2.jobs[done.id].result == {"ok": 1}
    assert journal2.quarantined == 1
    corrupt = journal2.journal_path.parent / "journal.jsonl.corrupt"
    assert corrupt.exists()
    assert b'"sta' in corrupt.read_bytes()
    # The journal itself was rewritten to its parsable prefix: a third
    # recovery is clean.
    __, journal3, __ = recovered(tmp_path)
    assert journal3.quarantined == 0


def test_garbage_mid_file_stops_replay_at_damage(tmp_path):
    queue, journal = fresh(tmp_path)
    first = queue.submit("run", {"n": 1})
    journal.close()
    raw = journal.journal_path.read_bytes()
    with open(journal.journal_path, "wb") as fh:
        fh.write(raw)
        fh.write(b"\x00\xffnot json\n")
        # A record *after* the damage must not be replayed: ordering
        # is part of correctness.
        fh.write(json.dumps({"rec": "state", "id": first.id,
                             "state": "done", "result": {"fake": 1}})
                 .encode() + b"\n")

    queue2, journal2, __ = recovered(tmp_path)
    assert journal2.quarantined == 1
    twin = queue2.jobs[first.id]
    assert twin.result is None  # the post-damage record was discarded
    assert twin.state == JobState.QUEUED


def test_missing_final_newline_is_repaired(tmp_path):
    queue, journal = fresh(tmp_path)
    queue.submit("run", {})
    journal.close()
    raw = journal.journal_path.read_bytes()
    assert raw.endswith(b"\n")
    journal.journal_path.write_bytes(raw[:-1])  # valid JSON, no newline

    __, journal2, summary = recovered(tmp_path)
    assert summary["recovered_jobs"] == 1
    assert journal2.journal_path.read_bytes().endswith(b"\n")


def test_corrupt_snapshot_is_quarantined_journal_still_replays(tmp_path):
    queue, journal = fresh(tmp_path)
    job = queue.submit("run", {})
    queue.claim()
    queue.resolve(job, result={"ok": True})
    journal.close()
    journal.snapshot_path.write_text("{ not json")

    queue2, journal2, __ = recovered(tmp_path)
    assert journal2.quarantined == 1
    assert (tmp_path / "snapshot.json.corrupt").exists()
    # The journal was never truncated, so nothing is actually lost.
    assert queue2.jobs[job.id].result == {"ok": True}


def test_write_errors_degrade_instead_of_raising(tmp_path):
    journal = JobJournal(tmp_path)
    journal.journal_path.mkdir()  # open() for append now fails
    queue = JobQueue(journal=journal)
    job = queue.submit("run", {})  # must not raise
    queue.claim()
    queue.resolve(job, result={})
    assert journal.write_errors > 0
    assert journal.appends == 0


def test_empty_state_dir_recovers_to_empty_queue(tmp_path):
    queue, __, summary = recovered(tmp_path)
    assert summary == {"recovered_jobs": 0, "requeued_jobs": 0,
                       "quarantined": 0}
    assert queue.jobs == {}
