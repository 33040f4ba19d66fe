"""The datapath/memory parameter partition (repro.exec.params).

Run-cache keys and graph keys both rest on one invariant: every knob a
user can turn is *deliberately* classified.  A parameter on the memory
side may only change timing; one on the datapath side may change what
the kernel computes; an execution parameter must not affect results at
all.  The property tests here make adding an accelerator kwarg without
classifying it a test failure, not a silent key-sharing hazard.
"""

import inspect

import pytest

from repro.core.config import DeviceConfig
from repro.exec.cache import run_cache_key, split_cache_key
from repro.exec.params import (
    CONFIG_DATAPATH_FIELDS,
    CONFIG_MEMORY_FIELDS,
    DATAPATH_PARAMS,
    EXECUTION_PARAMS,
    MEMORY_PARAMS,
    classify_param,
    split_acc_kwargs,
    split_device_config,
)
from repro.system.soc import StandaloneAccelerator
from repro.workloads import get_workload

GEMM = get_workload("gemm")


# -- the partition covers the accelerator surface, exactly once ---------
def test_every_accelerator_kwarg_is_classified_exactly_once():
    sig = inspect.signature(StandaloneAccelerator.__init__)
    knobs = {name for name in sig.parameters
             if name not in ("self", "source", "func_name")}
    classified = DATAPATH_PARAMS | MEMORY_PARAMS | EXECUTION_PARAMS
    unclassified = knobs - classified
    assert not unclassified, (
        f"StandaloneAccelerator kwargs missing from the partition: "
        f"{sorted(unclassified)} — declare each in repro.exec.params")
    assert not (DATAPATH_PARAMS & MEMORY_PARAMS)
    assert not (DATAPATH_PARAMS & EXECUTION_PARAMS)
    assert not (MEMORY_PARAMS & EXECUTION_PARAMS)


def test_every_device_config_field_is_classified_exactly_once():
    fields = set(DeviceConfig().to_dict())
    classified = CONFIG_DATAPATH_FIELDS | CONFIG_MEMORY_FIELDS
    assert fields <= classified, (
        f"DeviceConfig fields missing from the partition: "
        f"{sorted(fields - classified)}")
    assert not (CONFIG_DATAPATH_FIELDS & CONFIG_MEMORY_FIELDS)


def test_classify_param_sides():
    assert classify_param("spm_read_ports") == "memory"
    assert classify_param("unroll_factor") == "datapath"
    assert classify_param("artifact_store") == "execution"
    assert classify_param("no_such_knob") is None


# -- splitting behaviour ------------------------------------------------
def test_split_acc_kwargs_routes_config_fields_to_both_sides():
    cfg = DeviceConfig(read_ports=4, clock_freq_hz=2e8)
    datapath, memory, unknown = split_acc_kwargs(
        dict(config=cfg, spm_bytes=1 << 12, unroll_factor=2,
             artifact_store=object()))
    assert datapath["config"]["clock_freq_hz"] == 2e8
    assert memory["config"]["read_ports"] == 4
    assert memory["spm_bytes"] == 1 << 12
    assert datapath["unroll_factor"] == 2
    assert "artifact_store" not in datapath and "artifact_store" not in memory
    assert unknown == []


def test_unclassified_kwargs_land_on_the_datapath_side():
    # Conservative default: an unknown knob forces a full simulation
    # (never an unsound trace reuse).
    datapath, memory, unknown = split_acc_kwargs(dict(burst=8))
    assert datapath["burst"] == 8
    assert "burst" not in memory
    assert unknown == ["burst"]


def test_split_device_config_partitions_every_field():
    fields = set(DeviceConfig().to_dict())
    datapath, memory = split_device_config(DeviceConfig())
    assert set(datapath) | set(memory) == fields
    assert not set(datapath) & set(memory)
    assert set(memory) <= CONFIG_MEMORY_FIELDS


# -- the two-level cache key --------------------------------------------
def _keys(**kwargs):
    return split_cache_key(GEMM.source, GEMM.func_name, seed=7, **kwargs)


def test_memory_only_change_keeps_the_datapath_key():
    base_dk, base_mk = _keys(memory="spm", spm_read_ports=2)
    dk, mk = _keys(memory="spm", spm_read_ports=4)
    assert dk == base_dk
    assert mk != base_mk


def test_datapath_change_moves_the_datapath_key():
    base_dk, _ = _keys(memory="spm", unroll_factor=1)
    dk, _ = _keys(memory="spm", unroll_factor=4)
    assert dk != base_dk


def test_config_fields_split_across_the_key_pair():
    base_dk, base_mk = _keys(config=DeviceConfig())
    dk, mk = _keys(config=DeviceConfig(read_ports=8))
    assert dk == base_dk and mk != base_mk  # memory-side config field
    dk, mk = _keys(config=DeviceConfig(clock_freq_hz=2e8))
    assert dk != base_dk  # datapath-side config field


def test_flat_key_is_a_digest_of_the_split_pair():
    kwargs = dict(memory="spm", spm_read_ports=4, unroll_factor=2)
    flat_a = run_cache_key(GEMM.source, GEMM.func_name, seed=7, **kwargs)
    flat_b = run_cache_key(GEMM.source, GEMM.func_name, seed=7, **kwargs)
    assert flat_a == flat_b
    other = run_cache_key(GEMM.source, GEMM.func_name, seed=7,
                          memory="spm", spm_read_ports=2, unroll_factor=2)
    assert flat_a != other


# -- one mapping from run parameters to accelerator kwargs ---------------
class _Keyed(Exception):
    """Stops a CLI command once its run-cache key is known."""


def _cli_keys(monkeypatch, argv):
    """The run-cache keys ``repro <argv>`` would look up, one per point."""
    import repro.exec
    from repro.cli import main
    from repro.exec.cache import run_cache_key

    keys = []

    class KeyedContext(repro.exec.SimContext):
        def run(self):
            keys.append(self.cache_key())
            raise _Keyed

    class KeyedSweep:
        def __init__(self, **kwargs):
            pass

        def run(self, workload, grid, configure, seed=7):
            for ports in grid["ports"]:
                keys.append(run_cache_key(workload.source, workload.func_name,
                                          seed=seed,
                                          **configure({"ports": ports})))
            raise _Keyed

    monkeypatch.setattr(repro.exec, "SimContext", KeyedContext)
    monkeypatch.setattr(repro.exec, "ParallelSweep", KeyedSweep)
    with pytest.raises(_Keyed):
        main(argv)
    return keys


@pytest.mark.parametrize("memory", ["spm", "cache", "ideal"])
def test_cli_run_and_serve_spec_share_run_cache_key(monkeypatch, memory):
    from repro.serve.workers import job_dedup_key

    key, = _cli_keys(monkeypatch, [
        "run", "gemm_dse", "--memory", memory, "--ports", "4",
        "--unroll", "2", "--clock-mhz", "200", "--fu-limit", "fp_add=2"])
    spec = {"workload": "gemm_dse", "memory": memory, "ports": 4,
            "unroll": 2, "clock_mhz": 200, "fu_limits": {"fp_add": 2}}
    assert job_dedup_key("run", spec) == f"run:{key}"


def test_cli_sweep_points_share_run_cache_key_with_serve_specs(monkeypatch):
    from repro.serve.workers import job_dedup_key

    keys = _cli_keys(monkeypatch, ["sweep", "gemm_dse", "--ports", "1", "4",
                                   "--unroll", "2"])
    assert keys == [
        job_dedup_key("run", {"workload": "gemm_dse", "ports": ports,
                              "unroll": 2})[len("run:"):]
        for ports in (1, 4)]
