"""ArtifactStore: hit/miss accounting, disk round-trip, quarantine."""

import pickle

import pytest

from repro.build import Artifact, ArtifactStore, artifact_key, build_module
from repro.build.artifact import module_fingerprint
from repro.ir.printer import print_module

SRC = """
void axpy(double a[16], double b[16]) {
  for (int i = 0; i < 16; i++) { b[i] = b[i] + 2.0 * a[i]; }
}
"""
KEY = artifact_key(SRC, "axpy", "o1")


def _compiled(store=None):
    return build_module(SRC, "axpy", pipeline="o1", store=store)


# -- in-memory --------------------------------------------------------------
def test_miss_then_hit_accounting():
    store = ArtifactStore()
    assert store.get(KEY) is None
    artifact = _compiled(store)          # miss -> compile -> put
    assert store.misses == 2             # explicit get above + build's probe
    assert store.hits == 0
    again = _compiled(store)
    assert store.hits == 1
    assert again.meta["cached"] is True
    assert artifact.meta["cached"] is False
    assert print_module(again.module) == print_module(artifact.module)


def test_hits_are_private_copies():
    store = ArtifactStore()
    _compiled(store)
    first = store.get(KEY)
    first.module.functions.clear()       # vandalise the returned copy
    second = store.get(KEY)
    assert "axpy" in second.module.functions


def test_contains_len_clear():
    store = ArtifactStore()
    assert KEY not in store and len(store) == 0
    _compiled(store)
    assert KEY in store and len(store) == 1
    store.clear()
    assert KEY not in store and len(store) == 0
    assert store.hits == store.misses == 0


# -- on disk ----------------------------------------------------------------
def test_disk_round_trip_is_lossless(tmp_path):
    artifact = _compiled(ArtifactStore(tmp_path))
    assert (tmp_path / f"{KEY}.art").exists()
    # A brand-new store (fresh process stand-in) hits from disk with
    # byte-identical IR.
    reloaded = ArtifactStore(tmp_path).get(KEY)
    assert reloaded is not None
    assert print_module(reloaded.module) == print_module(artifact.module)
    assert module_fingerprint(reloaded.module) == artifact.meta["fingerprint"]


def test_put_leaves_no_temp_files(tmp_path):
    store = ArtifactStore(tmp_path)
    _compiled(store)
    assert not list(tmp_path.glob("*.tmp*"))


# -- corruption quarantine --------------------------------------------------
def test_truncated_entry_quarantined_as_miss(tmp_path):
    _compiled(ArtifactStore(tmp_path))
    entry = tmp_path / f"{KEY}.art"
    entry.write_bytes(entry.read_bytes()[:10])   # simulate a torn write
    store = ArtifactStore(tmp_path)
    assert store.get(KEY) is None
    assert store.misses == 1 and store.quarantined == 1
    assert not entry.exists()
    assert (tmp_path / f"{KEY}.art.corrupt").exists()
    # The quarantined key is rebuildable: a fresh put round-trips again.
    rebuilt = _compiled(store)
    assert store.get(KEY).meta["fingerprint"] == rebuilt.meta["fingerprint"]


def test_garbage_bytes_quarantined(tmp_path):
    entry = tmp_path / f"{KEY}.art"
    entry.write_bytes(b"not a pickle at all")
    store = ArtifactStore(tmp_path)
    assert store.get(KEY) is None
    assert store.quarantined == 1
    assert (tmp_path / f"{KEY}.art.corrupt").exists()


def test_renamed_entry_quarantined(tmp_path):
    # A readable pickle under the wrong key is also corruption: the
    # store must never serve artifact A for key B.
    _compiled(ArtifactStore(tmp_path))
    wrong = tmp_path / ("0" * 64 + ".art")
    (tmp_path / f"{KEY}.art").rename(wrong)
    store = ArtifactStore(tmp_path)
    assert store.get("0" * 64) is None
    assert store.quarantined == 1


def test_non_artifact_pickle_quarantined(tmp_path):
    entry = tmp_path / f"{KEY}.art"
    entry.write_bytes(pickle.dumps({"kind": "opt-ir"}))
    store = ArtifactStore(tmp_path)
    assert store.get(KEY) is None
    assert store.quarantined == 1


def test_corrupt_memory_entry_quarantined():
    store = ArtifactStore()
    store._memory[KEY] = b"garbage"
    assert store.get(KEY) is None
    assert store.quarantined == 1
    assert KEY not in store._memory


# -- graph entries: decoded once, shared by every hit -----------------------
def _graph_artifact(store):
    from repro.build import BuildPipeline, build_design

    design = build_design(SRC, "axpy", pipeline="o1")
    return BuildPipeline(store=store).graph(design)


def test_graph_hits_share_one_payload():
    store = ArtifactStore()
    lowered = _graph_artifact(store)
    first, second = store.get(lowered.key), store.get(lowered.key)
    assert first.payload is lowered.payload
    assert second.payload is lowered.payload
    assert first.meta["cached"] is True
    # A hit never touches the stored entry's (or the lowering's) meta.
    first.meta["scribble"] = 1
    assert "scribble" not in second.meta
    assert "cached" not in lowered.meta


def test_reopened_disk_store_serves_graph_hits(tmp_path):
    lowered = _graph_artifact(ArtifactStore(tmp_path))
    assert (tmp_path / f"{lowered.key}.art").exists()
    reopened = ArtifactStore(tmp_path)
    first, second = reopened.get(lowered.key), reopened.get(lowered.key)
    assert reopened.hits == 2 and reopened.misses == 0
    assert first.payload.n_nodes == lowered.payload.n_nodes
    assert first.payload is second.payload  # decoded once


def test_quarantined_graph_key_drops_decoded_entry(tmp_path):
    store = ArtifactStore(tmp_path)
    lowered = _graph_artifact(store)
    assert lowered.key in store
    store._quarantine(lowered.key)
    assert lowered.key not in store._memory
    assert lowered.key not in store
    assert (tmp_path / f"{lowered.key}.art.corrupt").exists()


# -- artifact basics --------------------------------------------------------
def test_unknown_artifact_kind_rejected():
    with pytest.raises(ValueError):
        Artifact("blob", object())


def test_non_module_artifact_has_no_module():
    ast = Artifact("ast", object())
    with pytest.raises(TypeError):
        ast.module
