"""Durable serving: the write-ahead job journal and crash recovery.

Everything the `JobServer` holds in memory — queued jobs, running
jobs, per-job event logs, terminal results — evaporates on a SIGKILL,
an OOM kill, or a deploy restart, even though the `RunCache` and
`ArtifactStore` *beneath* the server are durable.  `JobJournal` closes
that gap with the classic write-ahead-log recipe:

* **Append-only JSONL journal** (``<state-dir>/journal.jsonl``).
  Every submission (``rec: submit``, the full job record), every state
  transition (``rec: state``, a delta with result/failure payloads),
  and every progress event (``rec: event``) is one JSON line, written
  under a lock as a single flushed ``write()`` so concurrent worker
  threads never interleave partial lines.
* **Snapshot + compaction** (``<state-dir>/snapshot.json``).  Every
  ``snapshot_every`` appends (and on graceful drain) the full queue
  state is published atomically and the journal truncated, so the
  journal never grows without bound and recovery stays O(recent
  activity).
* **Corrupt-tail tolerance**: a crash mid-append leaves a truncated
  final line.
  Recovery replays up to the first unparsable record, moves the
  suspect tail aside as ``journal.jsonl.corrupt`` for post-mortem,
  and rewrites the journal to the good prefix — a damaged tail can
  never poison later appends or reruns.

Publishing and quarantining follow the rule in DESIGN.md's "Durable
storage" paragraph, owned by `repro.durable`.

Recovery (`recover_queue`) replays snapshot + journal into a fresh
`JobQueue`: terminal jobs are kept verbatim (GET still serves their
results), jobs that were ``queued``/``running`` at crash time are
re-queued (keeping their attempt counter, with a ``recovered`` event
on their log), and active jobs sharing a dedup key are re-coalesced —
the first becomes the primary, the rest re-attach as followers.

Replay is idempotent by construction: event records carry their
``seq`` and are only appended past the current log length, and state
records are plain field overwrites — so records that are both in the
snapshot and still in the journal (the compaction window) apply twice
without harm.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Optional, Union

from repro.durable import publish, quarantine
from repro.serve.jobs import Job, JobQueue

#: Default appends between automatic snapshot/compaction cycles.
SNAPSHOT_EVERY = 1000

#: Journal/snapshot format version, bumped on incompatible changes.
JOURNAL_VERSION = 1


@dataclass
class RecoveredState:
    """What `JobJournal.recover` found on disk."""

    #: Full job payloads (``Job.to_journal`` shape) in submission order.
    jobs: list = field(default_factory=list)
    #: Queue counters captured by the last snapshot + replayed deltas.
    counters: dict = field(default_factory=dict)
    #: ``next(self._counter)`` floor so recovered ids never collide.
    id_floor: int = 0


class JobJournal:
    """Append-only JSONL write-ahead log under ``repro serve --state-dir``.

    Thread-safe: appends come from worker threads (progress events) and
    the event loop (state transitions) alike; one lock serialises them
    and compaction.  Write failures never raise into the serving path —
    they are counted (``write_errors``) and surface as a ``degraded``
    health status instead.
    """

    JOURNAL_NAME = "journal.jsonl"
    SNAPSHOT_NAME = "snapshot.json"

    def __init__(self, state_dir: Union[str, Path],
                 snapshot_every: int = SNAPSHOT_EVERY,
                 fsync: bool = False) -> None:
        self.dir = Path(state_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.journal_path = self.dir / self.JOURNAL_NAME
        self.snapshot_path = self.dir / self.SNAPSHOT_NAME
        self.snapshot_every = max(1, int(snapshot_every))
        self.fsync = fsync
        self._lock = threading.Lock()
        self._fh = None
        self.appends = 0
        self.appends_since_snapshot = 0
        self.snapshots = 0
        self.quarantined = 0
        self.write_errors = 0
        self.recovered_jobs = 0
        self.requeued_jobs = 0

    # -- writing -------------------------------------------------------
    def append(self, record: dict) -> None:
        """Durably append one record; a failed write degrades, never raises."""
        line = json.dumps(record, sort_keys=True, separators=(",", ":"),
                          default=str) + "\n"
        with self._lock:
            try:
                if self._fh is None:
                    self._fh = open(self.journal_path, "a", encoding="utf-8")
                self._fh.write(line)
                self._fh.flush()
                if self.fsync:
                    os.fsync(self._fh.fileno())
            except OSError:
                self.write_errors += 1
                return
            self.appends += 1
            self.appends_since_snapshot += 1

    def record_submit(self, job: Job) -> None:
        self.append({"rec": "submit", "job": job.to_journal()})

    def record_event_sink(self, job: Job, event: dict) -> None:
        """`Job.sink` hook: journal one progress event as it is published."""
        self.append({"rec": "event", "id": job.id, "e": event})

    def record_state(self, job: Job, via: Optional[str] = None) -> None:
        record = {
            "rec": "state",
            "id": job.id,
            "state": job.state,
            "deduped_of": job.deduped_of,
            "cache_hit": job.cache_hit,
            "result": job.result,
            "failure": job.failure,
            "started_s": job.started_s,
            "finished_s": job.finished_s,
            "attempts": job.attempts,
        }
        if via is not None:
            record["via"] = via
        self.append(record)

    # -- snapshot / compaction -----------------------------------------
    def should_compact(self) -> bool:
        return self.appends_since_snapshot >= self.snapshot_every

    def compact(self, queue: JobQueue) -> None:
        """Write an atomic full-state snapshot and truncate the journal.

        Must run on the thread that owns queue mutations (the server's
        event loop).  The lock is held from the snapshot read through
        the truncation, so a worker thread's progress-event append
        either lands before both (its event, appended to the job's list
        before the journal, is in the snapshot) or waits and lands in
        the fresh journal, where replaying it on top of the snapshot is
        idempotent.
        """
        with self._lock:
            try:
                publish(self.snapshot_path,
                        lambda fh: _write_snapshot(fh, queue))
                if self._fh is not None:
                    self._fh.close()
                    self._fh = None
                open(self.journal_path, "w").close()
            except OSError:
                self.write_errors += 1
                return
            self.snapshots += 1
            self.appends_since_snapshot = 0

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                try:
                    self._fh.close()
                except OSError:
                    pass
                self._fh = None

    # -- recovery ------------------------------------------------------
    def recover(self) -> RecoveredState:
        """Load snapshot + journal into job payloads (no queue mutation)."""
        jobs: dict[str, dict] = {}
        order: list[str] = []
        counters: dict[str, int] = {}

        def upsert(payload: dict) -> None:
            job_id = payload.get("id")
            if not isinstance(job_id, str) or not job_id:
                raise ValueError("job record without an id")
            if job_id not in jobs:
                order.append(job_id)
            jobs[job_id] = payload

        self._load_snapshot(upsert, counters)
        self._replay_journal(jobs, upsert, counters)
        ordered = [jobs[job_id] for job_id in order]
        return RecoveredState(jobs=ordered, counters=counters,
                              id_floor=_id_floor(order))

    def _load_snapshot(self, upsert, counters: dict) -> None:
        if not self.snapshot_path.exists():
            return
        try:
            snapshot = json.loads(self.snapshot_path.read_text())
            for payload in snapshot["jobs"]:
                upsert(dict(payload))
            counters.update({k: int(v) for k, v
                             in snapshot.get("counters", {}).items()})
        except (OSError, ValueError, KeyError, TypeError):
            self.quarantined += 1
            quarantine(self.snapshot_path)

    def _replay_journal(self, jobs: dict, upsert, counters: dict) -> None:
        try:
            raw = self.journal_path.read_bytes()
        except OSError:
            return
        good_lines: list[bytes] = []
        bad_tail = b""
        offset = 0
        for line in raw.splitlines(keepends=True):
            stripped = line.strip()
            if not stripped:
                offset += len(line)
                continue
            try:
                record = json.loads(stripped)
                if not isinstance(record, dict):
                    raise ValueError("journal record is not an object")
                self._apply(record, jobs, upsert, counters)
            except (ValueError, KeyError, TypeError, UnicodeDecodeError):
                # A record we cannot parse means the file was cut mid-
                # append (or damaged): everything from here on is
                # suspect and order matters, so stop replaying.
                bad_tail = raw[offset:]
                break
            good_lines.append(stripped + b"\n")
            offset += len(line)
        else:
            # Every line parsed, but a final line without its newline
            # would silently merge with the next append — rewrite it.
            if raw and not raw.endswith(b"\n"):
                self._rewrite(good_lines)
        if bad_tail:
            self.quarantined += 1
            quarantine(self.journal_path, tail=bad_tail)
            self._rewrite(good_lines)

    def _rewrite(self, good_lines: list) -> None:
        """Replace the journal with its parsable prefix."""
        try:
            publish(self.journal_path, b"".join(good_lines))
        except OSError:
            self.write_errors += 1

    @staticmethod
    def _apply(record: dict, jobs: dict, upsert, counters: dict) -> None:
        kind = record.get("rec")
        if kind == "submit":
            payload = dict(record["job"])
            payload.setdefault("events", [])
            upsert(payload)
            if payload.get("deduped_of"):
                counters["dedup_hits"] = counters.get("dedup_hits", 0) + 1
        elif kind == "event":
            payload = jobs.get(record["id"])
            if payload is None:
                return  # event for a job whose submit record was lost
            events = payload.setdefault("events", [])
            event = record["e"]
            if int(event.get("seq", len(events))) >= len(events):
                events.append(event)
        elif kind == "state":
            payload = jobs.get(record["id"])
            if payload is None:
                return
            for key in ("state", "deduped_of", "cache_hit", "result",
                        "failure", "started_s", "finished_s", "attempts"):
                if key in record:
                    payload[key] = record[key]
            via = record.get("via")
            if via == "resolve":
                counters["executed"] = counters.get("executed", 0) + 1
            elif via == "cancel":
                counters["cancelled"] = counters.get("cancelled", 0) + 1
            elif via == "retry":
                counters["retried"] = counters.get("retried", 0) + 1
        # Unknown record kinds are skipped: a newer server may have
        # written them, and ignoring beats refusing to start.

    # -- observability -------------------------------------------------
    def stats(self) -> dict:
        return {
            "path": str(self.dir),
            "appends": self.appends,
            "appends_since_snapshot": self.appends_since_snapshot,
            "snapshots": self.snapshots,
            "quarantined": self.quarantined,
            "write_errors": self.write_errors,
            "recovered_jobs": self.recovered_jobs,
            "requeued_jobs": self.requeued_jobs,
        }


def _write_snapshot(fh: BinaryIO, queue: JobQueue) -> None:
    """Write the snapshot document to ``fh`` one job at a time.

    A snapshot holds every job's result.  Built as one string it is a
    transient second copy of all of them, which raises the server's
    peak memory in step with the number of jobs it has served.  The
    document is the one ``json.dumps(snapshot, sort_keys=True)`` would
    produce.
    """
    def write(text: str) -> None:
        fh.write(text.encode("utf-8"))

    write('{"counters": ' + json.dumps(queue.counters(), sort_keys=True)
          + ', "jobs": [')
    for index, job in enumerate(queue.jobs.values()):
        if index:
            write(", ")
        write(json.dumps(job.to_journal(), sort_keys=True, default=str))
    write(f'], "t": {json.dumps(round(time.time(), 6))}, '
          f'"version": {JOURNAL_VERSION}}}')


def _id_floor(job_ids: list) -> int:
    """Smallest safe ``itertools.count`` start given recovered ids."""
    floor = 0
    for job_id in job_ids:
        digits = job_id[1:] if job_id[:1] == "j" else job_id
        if digits.isdigit():
            floor = max(floor, int(digits) + 1)
    return floor


def recover_queue(queue: JobQueue, journal: JobJournal) -> dict:
    """Rebuild ``queue`` from ``journal``; returns a recovery summary.

    Attach the journal to the queue *before* calling this: the
    recovery mutations themselves (``recovered`` events, re-queue
    state records) are journaled, so a crash during recovery replays
    cleanly on the next start.
    """
    recovered = journal.recover()
    requeued = 0
    for payload in recovered.jobs:
        try:
            job = Job.from_journal(payload)
        except (KeyError, TypeError, ValueError):
            journal.quarantined += 1
            continue
        if queue.adopt(job):
            requeued += 1
    queue.bump_counter(recovered.id_floor)
    queue.restore_counters(recovered.counters)
    journal.recovered_jobs = len(recovered.jobs)
    journal.requeued_jobs = requeued
    return {
        "recovered_jobs": len(recovered.jobs),
        "requeued_jobs": requeued,
        "quarantined": journal.quarantined,
    }
