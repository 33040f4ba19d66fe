"""Run cache: key content-addressing, hit/miss accounting, persistence,
and lossless RunResult serialization."""

import json

import pytest

from repro.core.config import DeviceConfig
from repro.exec import RunCache, SimContext, run_cache_key
from repro.frontend import compile_c
from repro.workloads import get_workload

SRC = "void f(double a[4]) { for (int i = 0; i < 4; i++) { a[i] = a[i] + 1.0; } }"


# -- keys --------------------------------------------------------------------
def test_key_is_deterministic():
    kwargs = dict(config=DeviceConfig(read_ports=4), unroll_factor=2, memory="spm")
    assert run_cache_key(SRC, "f", seed=7, **kwargs) == run_cache_key(
        SRC, "f", seed=7, **kwargs
    )


def test_key_depends_on_every_input():
    base = run_cache_key(SRC, "f", seed=7, unroll_factor=1, memory="spm")
    assert base != run_cache_key(SRC + " ", "f", seed=7, unroll_factor=1, memory="spm")
    assert base != run_cache_key(SRC, "g", seed=7, unroll_factor=1, memory="spm")
    assert base != run_cache_key(SRC, "f", seed=8, unroll_factor=1, memory="spm")
    assert base != run_cache_key(SRC, "f", seed=7, unroll_factor=2, memory="spm")
    assert base != run_cache_key(SRC, "f", seed=7, unroll_factor=1, memory="ideal")
    assert base != run_cache_key(
        SRC, "f", seed=7, unroll_factor=1, memory="spm",
        config=DeviceConfig(read_ports=8),
    )


def test_key_kwarg_order_is_irrelevant():
    assert run_cache_key(SRC, "f", memory="spm", spm_bytes=1 << 14) == run_cache_key(
        SRC, "f", spm_bytes=1 << 14, memory="spm"
    )


def test_key_accepts_module_source():
    module = compile_c(SRC, "f")
    key = run_cache_key(module, "f", seed=7)
    # Stable for the same module; distinct from the raw-source key
    # (printed IR is a different text than the mini-C input).
    assert key == run_cache_key(module, "f", seed=7)
    assert key != run_cache_key(SRC, "f", seed=7)


def test_key_rejects_unserializable_values():
    with pytest.raises(TypeError):
        run_cache_key(SRC, "f", callback=lambda: None)


# -- store -------------------------------------------------------------------
def _one_result():
    ctx = SimContext(get_workload("gemm_dse"), memory="spm",
                     spm_bytes=1 << 15, unroll_factor=2)
    return ctx.run()


def test_cache_miss_then_hit():
    cache = RunCache()
    result = _one_result()
    assert cache.get("k") is None
    assert cache.misses == 1
    cache.put("k", result)
    assert "k" in cache
    got = cache.get("k")
    assert cache.hits == 1
    assert got.cycles == result.cycles
    # Rehydrated on every get: mutating one copy never poisons the store.
    got.fu_counts["poison"] = 1
    assert "poison" not in cache.get("k").fu_counts


def test_cache_disk_persistence(tmp_path):
    result = _one_result()
    writer = RunCache(tmp_path / "runs")
    writer.put("deadbeef", result)
    assert (tmp_path / "runs" / "deadbeef.json").exists()
    # A separate cache instance (e.g. a later process) finds it.
    reader = RunCache(tmp_path / "runs")
    got = reader.get("deadbeef")
    assert got is not None
    assert json.dumps(got.to_dict(), sort_keys=True) == json.dumps(
        result.to_dict(), sort_keys=True
    )
    assert len(reader) == 1
    reader.clear()
    assert len(reader) == 0
    assert not (tmp_path / "runs" / "deadbeef.json").exists()


# -- corruption / crash safety ----------------------------------------------
def test_truncated_entry_is_a_miss_and_quarantined(tmp_path):
    result = _one_result()
    writer = RunCache(tmp_path / "runs")
    writer.put("deadbeef", result)
    entry = tmp_path / "runs" / "deadbeef.json"
    entry.write_text(entry.read_text()[:40])  # simulate a crash mid-write

    reader = RunCache(tmp_path / "runs")
    assert reader.get("deadbeef") is None
    assert reader.misses == 1
    assert reader.quarantined == 1
    # The corrupt file was moved aside for post-mortem, not deleted...
    assert not entry.exists()
    corrupt = tmp_path / "runs" / "deadbeef.json.corrupt"
    assert corrupt.exists()
    # ...and it is invisible to lookups and __len__.
    assert len(reader) == 0
    assert "deadbeef" not in reader


def test_non_dict_payload_is_quarantined(tmp_path):
    cache = RunCache(tmp_path / "runs")
    (tmp_path / "runs" / "feedf00d.json").write_text("[1, 2, 3]")
    assert cache.get("feedf00d") is None
    assert cache.quarantined == 1


def test_non_utf8_entry_is_quarantined(tmp_path):
    cache = RunCache(tmp_path / "runs")
    (tmp_path / "runs" / "feedf00d.json").write_bytes(b"\xff\xfe{")
    assert cache.get("feedf00d") is None
    assert cache.quarantined == 1
    assert (tmp_path / "runs" / "feedf00d.json.corrupt").exists()


def test_put_after_quarantine_recovers_the_key(tmp_path):
    result = _one_result()
    cache = RunCache(tmp_path / "runs")
    (tmp_path / "runs" / "deadbeef.json").write_text("{ nope")
    assert cache.get("deadbeef") is None
    cache.put("deadbeef", result)
    revived = RunCache(tmp_path / "runs")  # fresh instance: disk only
    assert revived.get("deadbeef").cycles == result.cycles


def test_put_is_atomic_and_leaves_no_temp_files(tmp_path):
    result = _one_result()
    cache = RunCache(tmp_path / "runs")
    cache.put("cafebabe", result)
    names = sorted(p.name for p in (tmp_path / "runs").iterdir())
    assert names == ["cafebabe.json"]
    # Overwrites are also atomic replacements, not truncate-then-write.
    cache.put("cafebabe", result)
    names = sorted(p.name for p in (tmp_path / "runs").iterdir())
    assert names == ["cafebabe.json"]


def test_clear_removes_quarantined_entries(tmp_path):
    result = _one_result()
    cache = RunCache(tmp_path / "runs")
    cache.put("deadbeef", result)
    (tmp_path / "runs" / "badc0de.json").write_text("{ nope")
    assert cache.get("badc0de") is None
    assert (tmp_path / "runs" / "badc0de.json.corrupt").exists()
    cache.clear()
    assert list((tmp_path / "runs").iterdir()) == []
    assert cache.quarantined == 0


# -- RunResult round trip ----------------------------------------------------
def test_runresult_json_round_trip_is_lossless():
    result = _one_result()
    payload = json.loads(json.dumps(result.to_dict()))
    from repro.system.soc import RunResult

    revived = RunResult.from_dict(payload)
    assert json.dumps(revived.to_dict(), sort_keys=True) == json.dumps(
        result.to_dict(), sort_keys=True
    )
    # Derived metrics survive, including the frozenset-keyed histogram.
    occ, rocc = result.occupancy, revived.occupancy
    assert rocc.stall_fraction() == occ.stall_fraction()
    assert rocc.issue_fraction() == occ.issue_fraction()
    assert rocc.entry_stall_fraction() == occ.entry_stall_fraction()
    assert rocc.stall_breakdown() == occ.stall_breakdown()
    assert rocc.issue_mix() == occ.issue_mix()
    assert rocc.stall_sources == occ.stall_sources
    assert revived.power.total_mw == result.power.total_mw
    assert revived.area.total_um2 == result.area.total_um2
