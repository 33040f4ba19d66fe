"""Durable writes: a failed publish keeps the previous file and leaves no
temp file, and `RunCache` / `ArtifactStore` write unchanged bytes."""

import hashlib
import os
import pickle

import pytest

from repro.build import ArtifactStore, build_module
from repro.exec import RunCache
from repro.serve.jobs import Job, JobQueue
from repro.serve.journal import JobJournal
from repro.system.soc import RunResult

KEY = "ab" * 32

#: A small but complete `RunResult.to_dict` payload.
PAYLOAD = {
    "area": {"functional_units_um2": 37482.0, "registers_um2": 9238.12,
             "spm_um2": 313863.2096},
    "cycles": 1360,
    "fu_counts": {"fp_add": 2, "int_add": 17},
    "occupancy": {"blocked_by_kind": {}, "blocked_op_cycles": 0,
                  "cycles": 1360, "fu_busy_cycles": {"fp_add": 1536},
                  "idle_cycles": 4, "issue_cycles": 1311,
                  "issue_kind_cycles": {"fp": 791},
                  "issued_by_class": {"fp_add": 512},
                  "issued_op_total": 8362, "issued_ops": 5200,
                  "stall_cycles": 45, "stall_sources": {"compute": 45}},
    "power": {"fu_dynamic_pj": 17570.09280000028, "fu_leakage_mw": 0.13362,
              "register_dynamic_pj": 3299.1904000003015,
              "register_leakage_mw": 0.0109306, "runtime_ns": 13600.0,
              "spm_leakage_mw": 0.9274654720000001,
              "spm_read_pj": 12790.00576, "spm_write_pj": 943.2629248},
    "runtime_ns": 13600.0,
    "sanitizer": None,
    "stats": {"acc.cycles": 1360},
    "trace_summary": None,
}

SRC = """
void axpy(double a[16], double b[16]) {
  for (int i = 0; i < 16; i++) { b[i] = b[i] + 2.0 * a[i]; }
}
"""


def _result(cycles=1360):
    return RunResult.from_dict(dict(PAYLOAD, cycles=cycles))


def _fail(*args, **kwargs):
    raise OSError(28, "No space left on device")


def _temp_files(path):
    return list(path.glob("*.tmp*"))


# -- on-disk formats ----------------------------------------------------------
def test_runcache_entry_bytes_are_pinned(tmp_path):
    RunCache(tmp_path).put(KEY, _result())
    blob = (tmp_path / f"{KEY}.json").read_bytes()
    # ``json.dumps(payload, sort_keys=True)``: default separators, no
    # trailing newline.
    assert blob.startswith(b'{"area": {"functional_units_um2": 37482.0, ')
    assert blob.endswith(b', "trace_summary": null}')
    assert len(blob) == 839
    assert hashlib.sha256(blob).hexdigest() == (
        "ec40e7af8555702d7b85b028e3b2c9f0dff8e706c2a01ebece9a913be1bf1999")


def test_artifact_entry_is_the_artifact_pickle(tmp_path):
    artifact = build_module(SRC, "axpy", pipeline="o1",
                            store=ArtifactStore(tmp_path))
    blob = (tmp_path / f"{artifact.key}.art").read_bytes()
    assert blob == pickle.dumps(artifact)
    assert blob[:2] == bytes([0x80, pickle.DEFAULT_PROTOCOL])


# -- failed publishes ---------------------------------------------------------
def test_failed_runcache_publish_keeps_previous_entry(tmp_path, monkeypatch):
    cache = RunCache(tmp_path)
    cache.put(KEY, _result())
    with monkeypatch.context() as patch:
        patch.setattr(os, "replace", _fail)
        with pytest.raises(OSError):
            cache.put(KEY, _result(cycles=1))
    assert RunCache(tmp_path).get(KEY).to_dict() == PAYLOAD
    assert not _temp_files(tmp_path)


def test_failed_artifact_publish_keeps_previous_entry(tmp_path, monkeypatch):
    store = ArtifactStore(tmp_path)
    artifact = build_module(SRC, "axpy", pipeline="o1", store=store)
    entry = tmp_path / f"{artifact.key}.art"
    before = entry.read_bytes()
    with monkeypatch.context() as patch:
        patch.setattr(os, "replace", _fail)
        with pytest.raises(OSError):
            store.put(artifact.key, artifact)
    assert entry.read_bytes() == before
    reread = ArtifactStore(tmp_path).get(artifact.key)
    assert reread is not None
    assert reread.meta["fingerprint"] == artifact.meta["fingerprint"]
    assert not _temp_files(tmp_path)


@pytest.mark.parametrize("fault", ["write", "replace"])
def test_failed_compaction_keeps_previous_snapshot(tmp_path, monkeypatch,
                                                   fault):
    journal = JobJournal(tmp_path)
    queue = JobQueue(journal=journal)
    first = queue.submit("run", {"n": 1})
    journal.compact(queue)
    snapshot = tmp_path / JobJournal.SNAPSHOT_NAME
    before = snapshot.read_bytes()
    second = queue.submit("run", {"n": 2})
    with monkeypatch.context() as patch:
        if fault == "write":
            # The disk fills up partway through the snapshot document.
            to_journal = Job.to_journal

            def flaky(job):
                if job is not first:
                    _fail()
                return to_journal(job)

            patch.setattr(Job, "to_journal", flaky)
        else:
            patch.setattr(os, "replace", _fail)
        journal.compact(queue)
    journal.close()
    assert journal.write_errors == 1 and journal.snapshots == 1
    assert snapshot.read_bytes() == before
    assert not _temp_files(tmp_path)
    # The old snapshot plus the journal tail still recover both jobs.
    recovered = JobJournal(tmp_path).recover()
    assert [job["id"] for job in recovered.jobs] == [first.id, second.id]
