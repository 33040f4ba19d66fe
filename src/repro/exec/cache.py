"""Content-addressed cache of simulation runs.

A run is fully determined by its inputs: the kernel source, the entry
function, the device configuration, the compile-time unroll factor, the
dataset seed, and the memory-system keyword arguments.  `run_cache_key`
hashes a canonical JSON encoding of exactly that tuple, so two sweep
points that describe the same configuration map to the same key no
matter which process (or which run of the program) produced them.

`RunCache` stores `RunResult` payloads by key — always in memory,
optionally mirrored to a directory of ``<key>.json`` files so repeated
sweeps across program invocations are near-free.  The on-disk cache is
also where an interrupted sweep resumes from: `ParallelSweep` stores
each point as soon as it finishes.  It stays readable across crashes by
the rule in DESIGN.md's "Durable storage" paragraph (`repro.durable`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Optional

from repro.durable import DurableStore
from repro.system.soc import RunResult


def _canonical(value):
    """Reduce ``value`` to JSON-encodable, deterministically-ordered data."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {"__type__": type(value).__name__,
                **_canonical(dataclasses.asdict(value))}
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TypeError(
        f"cannot build a run-cache key from {type(value).__name__!r}; "
        "pass JSON-like values (or dataclasses of them)"
    )


def _digest(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def split_cache_key(source, func_name: str, *, seed: int = 7, pipeline=None,
                    **acc_kwargs) -> tuple[str, str]:
    """The two-level content address ``(datapath_key, memory_key)``.

    The datapath key covers everything that shapes the dynamic schedule
    *content* — kernel source (an IR `Module` is hashed via its printed
    text), entry function, dataset seed, pass pipeline, and the
    datapath-side kwargs per `repro.exec.params` (unclassified kwargs
    conservatively included).  The memory key covers only the
    memory-side kwargs.  Its one consumer is `run_cache_key`, which
    hashes the pair; the split form is kept so the key values stay
    exactly what on-disk run caches and serve journals already hold.

    A non-default ``pipeline`` (pass spec, see `repro.passes.pipeline`)
    changes which optimizations shaped the datapath, so it joins the
    datapath key; the default (None — the standard
    ``unroll_factor``-driven preset) is omitted so explicit-default and
    implicit-default callers agree.
    """
    from repro.exec.params import split_acc_kwargs
    from repro.ir.module import Module

    if isinstance(source, Module):
        from repro.ir.printer import print_module

        source = print_module(source)
    datapath_kwargs, memory_kwargs, _unclassified = split_acc_kwargs(acc_kwargs)
    datapath_payload = {
        "source": source,
        "func_name": func_name,
        "seed": seed,
        "kwargs": _canonical(datapath_kwargs),
    }
    if pipeline is not None:
        from repro.passes.pipeline import PipelineSpec

        datapath_payload["pipeline"] = PipelineSpec.parse(pipeline).canonical()
    memory_payload = {"kwargs": _canonical(memory_kwargs)}
    return _digest(datapath_payload), _digest(memory_payload)


def run_cache_key(source, func_name: str, *, seed: int = 7, pipeline=None,
                  **acc_kwargs) -> str:
    """Content hash of one simulation configuration.

    ``source`` is the kernel (mini-C text, or an IR `Module`, which is
    hashed via its printed text); ``acc_kwargs`` are the
    `StandaloneAccelerator` keyword arguments (config, memory,
    unroll_factor, SPM/cache/DRAM geometry, ...).  The flat key is the
    hash of the two-level ``(datapath_key, memory_key)`` pair from
    `split_cache_key` (see `repro.exec.params` for the partition).
    Consumers: `RunCache` entries (`SimContext`, `ParallelSweep`), and
    the job server's submit-time cache probe and run-job dedup key.
    """
    datapath_key, memory_key = split_cache_key(
        source, func_name, seed=seed, pipeline=pipeline, **acc_kwargs)
    return _digest({"datapath": datapath_key, "memory": memory_key})


class RunCache(DurableStore):
    """Key -> `RunResult` store with hit/miss accounting.

    Results are held as their `to_dict` payloads and rehydrated on every
    `get`, so callers can never mutate a cached entry in place.  With a
    ``path`` the payloads are also written as ``<key>.json`` files (JSON
    with sorted keys) and found again by later processes; a file that
    does not hold a JSON object is quarantined as ``<key>.json.corrupt``.
    """

    SUFFIX = ".json"

    def _decode(self, key: str, blob: bytes) -> Optional[dict]:
        try:
            payload = json.loads(blob)
        except ValueError:
            return None
        return payload if isinstance(payload, dict) else None

    def get(self, key: str) -> Optional[RunResult]:
        payload = self._lookup(key)
        return None if payload is None else RunResult.from_dict(payload)

    def put(self, key: str, result: RunResult) -> None:
        payload = result.to_dict()
        self._put(key, payload,
                  lambda: json.dumps(payload, sort_keys=True).encode())
