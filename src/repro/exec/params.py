"""The datapath/memory parameter partition — single source of truth.

A kernel's dynamic schedule *content* — the values every instruction
computes, the branch outcomes, and the resolved memory addresses —
depends only on the datapath-side inputs (kernel, dataset seed, pass
pipeline, FU structure), never on the memory-system timing.
Memory-side parameters change *when* things happen, not *what* happens.

This module declares which `StandaloneAccelerator` keyword argument
falls on which side.  Two consumers key off these sets:

* `repro.exec.cache.run_cache_key` is the digest of the two-level
  ``(datapath_key, memory_key)`` pair that `split_cache_key` builds
  from `split_acc_kwargs`.  Run caches (and so resumable sweeps) and
  the job server's dedup keys are all addressed by it;
* `repro.engine.graph.graph_key` keys only the `DeviceConfig` field
  lowering reads, the latency overrides, so every point of a sweep over
  memory knobs, FU limits (bound per run) or the reservation window
  shares one lowered graph.

A kwarg not in any set is treated as **datapath-side** by every
consumer: an unknown parameter can only make keys more specific, never
make two different designs share a graph.

`DeviceConfig` is special-cased: it is one object holding knobs from
both sides, so it is split field-wise (`split_device_config`) using
`CONFIG_DATAPATH_FIELDS` / `CONFIG_MEMORY_FIELDS`.
"""

from __future__ import annotations

from typing import Optional

#: `StandaloneAccelerator` kwargs that shape the datapath schedule:
#: they change computed values, branch outcomes, or resolved addresses.
#: (``config`` is split field-wise — see `CONFIG_DATAPATH_FIELDS`.)
DATAPATH_PARAMS = frozenset({
    "config",
    "profile",
    "unroll_factor",
})

#: Kwargs that only tune memory-system timing: the schedule content is
#: invariant under any change confined to these.  ``memory`` itself is
#: memory-side: "spm" and "ideal" stage identical addresses (same base,
#: same allocator).
MEMORY_PARAMS = frozenset({
    "memory",
    "spm_bytes",
    "spm_read_ports",
    "spm_write_ports",
    "spm_banks",
    "cache_kwargs",
    "dram_kwargs",
})

#: Execution machinery, not design points: never part of any cache key
#: (`run_cache_key` has always excluded these), so they are classified
#: here only to make the partition total over the accelerator's
#: signature — the property test asserts exactly-once coverage.
EXECUTION_PARAMS = frozenset({
    "artifact_store",
    "pipeline",
    "engine",
    "trace_hub",
})

#: `DeviceConfig` fields that shape the datapath schedule (FU pools,
#: latencies, the clock the profile derives energies from, the
#: reservation window that bounds fetch).
CONFIG_DATAPATH_FIELDS = frozenset({
    "name",
    "clock_freq_hz",
    "fu_limits",
    "latency_overrides",
    "reservation_window",
})

#: `DeviceConfig` fields that only tune memory-interface timing: issue
#: widths, queue depths, and the ideal-memory switch.  None of them can
#: change a computed value or a resolved address — only cycle counts.
CONFIG_MEMORY_FIELDS = frozenset({
    "read_queue_size",
    "write_queue_size",
    "read_ports",
    "write_ports",
    "ideal_memory",
})


def accelerator_kwargs(*, ports: int = 2, memory: str = "spm",
                       unroll: int = 1, clock_mhz: float = 100.0,
                       fu_limits: Optional[dict[str, int]] = None,
                       spm_bytes: int = 1 << 16) -> dict:
    """`StandaloneAccelerator` kwargs for one run's parameters.

    The one mapping ``repro run``, ``repro sweep`` and the job server's
    run and sweep jobs share, so the same parameters give the same
    run-cache key however they arrive.  ``ports`` read ports and half as
    many write ports (at least one); an SPM-backed run also gets
    ``ports`` SPM read ports.  Raises ``ValueError`` for an unknown
    ``memory``.
    """
    from repro.core.config import DeviceConfig

    if memory not in ("spm", "cache", "ideal"):
        raise ValueError(f"bad memory '{memory}' (spm|cache|ideal)")
    config = DeviceConfig(
        clock_freq_hz=clock_mhz * 1e6,
        read_ports=ports,
        write_ports=max(1, ports // 2),
        fu_limits=dict(fu_limits or {}),
    )
    kwargs = dict(config=config, memory=memory, unroll_factor=unroll)
    if memory in ("spm", "ideal"):
        kwargs.update(spm_bytes=spm_bytes, spm_read_ports=ports)
    return kwargs


def classify_param(name: str) -> Optional[str]:
    """``"datapath"`` / ``"memory"`` / ``"execution"``, or None when the
    parameter is unclassified (consumers treat that as datapath-side)."""
    if name in DATAPATH_PARAMS:
        return "datapath"
    if name in MEMORY_PARAMS:
        return "memory"
    if name in EXECUTION_PARAMS:
        return "execution"
    return None


def split_device_config(config) -> tuple[dict, dict]:
    """Split a `DeviceConfig` (or its ``to_dict`` payload) field-wise.

    Returns ``(datapath_fields, memory_fields)`` as plain dicts.  An
    unknown field (a future knob added to `DeviceConfig` but not to the
    field sets above) lands on the datapath side, so it joins the
    datapath half of the run-cache key rather than being silently
    ignored by it.
    """
    payload = config if isinstance(config, dict) else config.to_dict()
    datapath: dict = {}
    memory: dict = {}
    for field_name, value in payload.items():
        side = memory if field_name in CONFIG_MEMORY_FIELDS else datapath
        side[field_name] = value
    return datapath, memory


def split_acc_kwargs(acc_kwargs: dict) -> tuple[dict, dict, list[str]]:
    """Partition accelerator kwargs into ``(datapath, memory,
    unclassified)``.

    ``datapath`` and ``memory`` are the two halves of the two-level
    cache key (`repro.exec.cache.split_cache_key`); ``unclassified``
    names the kwargs that fell on the datapath side only because no
    declaration covers them.  Execution-machinery kwargs are dropped
    entirely, exactly as the flat key always excluded them.
    """
    datapath: dict = {}
    memory: dict = {}
    unclassified: list[str] = []
    for name in sorted(acc_kwargs):
        value = acc_kwargs[name]
        if name == "config" and value is not None:
            cfg_datapath, cfg_memory = split_device_config(value)
            datapath["config"] = cfg_datapath
            memory["config"] = cfg_memory
            continue
        side = classify_param(name)
        if side == "memory":
            memory[name] = value
        elif side == "execution":
            continue
        else:
            if side is None:
                unclassified.append(name)
            datapath[name] = value
    return datapath, memory, unclassified


__all__ = [
    "DATAPATH_PARAMS",
    "MEMORY_PARAMS",
    "EXECUTION_PARAMS",
    "CONFIG_DATAPATH_FIELDS",
    "CONFIG_MEMORY_FIELDS",
    "accelerator_kwargs",
    "classify_param",
    "split_device_config",
    "split_acc_kwargs",
]
