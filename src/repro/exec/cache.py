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
each point as soon as it finishes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import threading
from pathlib import Path
from typing import Optional, Union

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


class RunCache:
    """Key -> `RunResult` store with hit/miss accounting.

    Results are held as their `to_dict` payloads and rehydrated on every
    `get`, so callers can never mutate a cached entry in place.  With a
    ``path`` the payloads are also written as ``<key>.json`` files and
    found again by later processes.

    The on-disk mirror is crash-safe: `put` writes to a temp file and
    atomically renames it into place (a killed process never leaves a
    half-written entry under a live key), and `_load` treats anything
    unreadable as a miss — the corrupt file is renamed to
    ``<key>.json.corrupt`` for post-mortem instead of poisoning reruns.
    """

    def __init__(self, path: Optional[Union[str, Path]] = None) -> None:
        self.path = Path(path) if path is not None else None
        if self.path is not None:
            self.path.mkdir(parents=True, exist_ok=True)
        self._memory: dict[str, dict] = {}
        self.hits = 0
        self.misses = 0
        self.quarantined = 0

    # ------------------------------------------------------------------
    def _load(self, key: str) -> Optional[dict]:
        payload = self._memory.get(key)
        if payload is None and self.path is not None:
            entry = self.path / f"{key}.json"
            try:
                text = entry.read_text()
            except OSError:
                return None  # absent (or unreadable): plain miss
            try:
                payload = json.loads(text)
            except ValueError:
                self._quarantine(entry)
                return None
            if not isinstance(payload, dict):
                self._quarantine(entry)
                return None
            self._memory[key] = payload
        return payload

    def _quarantine(self, entry: Path) -> None:
        """Move a corrupt entry aside (``*.json.corrupt`` escapes the
        ``*.json`` glob, so it is invisible to lookups and __len__)."""
        self.quarantined += 1
        with contextlib.suppress(OSError):
            os.replace(entry, entry.parent / (entry.name + ".corrupt"))

    def get(self, key: str) -> Optional[RunResult]:
        payload = self._load(key)
        if payload is None:
            self.misses += 1
            return None
        self.hits += 1
        return RunResult.from_dict(payload)

    def put(self, key: str, result: RunResult) -> None:
        payload = result.to_dict()
        self._memory[key] = payload
        if self.path is not None:
            # Atomic publish: readers either see the old entry, no
            # entry, or the complete new one — never a partial write.
            # The temp name is unique per writer *thread*, not just per
            # process: the job server's worker threads share one cache,
            # and a pid-only suffix would let two threads interleave
            # writes into the same temp file.
            tmp = (self.path
                   / f"{key}.json.tmp{os.getpid()}.{threading.get_ident()}")
            tmp.write_text(json.dumps(payload, sort_keys=True))
            os.replace(tmp, self.path / f"{key}.json")

    # ------------------------------------------------------------------
    def __contains__(self, key: str) -> bool:
        return self._load(key) is not None

    def __len__(self) -> int:
        if self.path is not None:
            on_disk = {entry.stem for entry in self.path.glob("*.json")}
            return len(on_disk | set(self._memory))
        return len(self._memory)

    def clear(self) -> None:
        self._memory.clear()
        if self.path is not None:
            for pattern in ("*.json", "*.json.corrupt", "*.json.tmp*"):
                for entry in self.path.glob(pattern):
                    entry.unlink()
        self.hits = 0
        self.misses = 0
        self.quarantined = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        where = f" at {self.path}" if self.path else ""
        return f"<RunCache {len(self)} entries{where} hits={self.hits} misses={self.misses}>"
