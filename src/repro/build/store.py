"""Content-addressed store of build artifacts.

The compile-side sibling of `repro.exec.cache.RunCache`: keys are
SHA-256 hashes of (source, function, canonical pass-pipeline spec) —
see `repro.build.artifact.artifact_key` — and values are pickled
`Artifact`s.  Entries live in memory and, when a ``path`` is given, as
``<key>.art`` files on disk, so repeated sweeps across program
invocations skip the frontend entirely.

The on-disk mirror follows the same crash-safety discipline as
`RunCache`: `put` writes a temp file and atomically renames it into
place, and anything that fails to unpickle (truncated write, foreign
bytes, stale class layout) is renamed to ``<key>.art.corrupt`` and
treated as a miss instead of poisoning later builds.

Two kinds of entry are held differently in memory.  A module (any
artifact not in `SHARED_KINDS`) is held as its pickled bytes and every
hit rehydrates from them, so callers can never mutate a stored module
in place — each hit is a private copy.  A lowered `SimGraph` and an
`ElaborationRecord` are read-only under a run
(`tests/engine/test_graph_readonly.py`), so they are held decoded and
every hit shares the one object: no unpickle and, for a graph, no
rebuild of its eval thunks per hit.  The record holds no IR (it is
keyed by module content, and each unit pairs it with its own module's
instructions), so sharing it across private module copies is safe.
Shared kinds are pickled only for the disk mirror.  Every hit gets its
own `Artifact` wrapper and ``meta`` dict, so marking a hit ``cached``
never touches the stored entry.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import threading
from pathlib import Path
from typing import Optional, Union

from repro.build.artifact import Artifact

#: Artifact kinds held decoded in memory and shared by every hit.
SHARED_KINDS = ("elaboration", "graph")


class ArtifactStore:
    """Key -> `Artifact` store with hit/miss/quarantine accounting."""

    SUFFIX = ".art"

    def __init__(self, path: Optional[Union[str, Path]] = None) -> None:
        self.path = Path(path) if path is not None else None
        if self.path is not None:
            self.path.mkdir(parents=True, exist_ok=True)
        #: key -> pickled bytes (private-copy kinds) or the decoded
        #: `Artifact` (`SHARED_KINDS`).
        self._memory: dict[str, Union[bytes, Artifact]] = {}
        self.hits = 0
        self.misses = 0
        self.quarantined = 0

    # ------------------------------------------------------------------
    def _entry(self, key: str) -> Optional[Path]:
        return None if self.path is None else self.path / f"{key}{self.SUFFIX}"

    def _load(self, key: str) -> Optional[Artifact]:
        blob = self._memory.get(key)
        if isinstance(blob, Artifact):
            return blob
        entry = self._entry(key)
        if blob is None:
            if entry is None:
                return None
            try:
                blob = entry.read_bytes()
            except OSError:
                return None  # absent (or unreadable): plain miss
        try:
            artifact = pickle.loads(blob)
        except Exception:  # noqa: BLE001 - any unpickling failure is corruption
            self._quarantine(key, entry)
            return None
        if not isinstance(artifact, Artifact) or artifact.key != key:
            # Readable pickle, wrong contents (e.g. a renamed entry).
            self._quarantine(key, entry)
            return None
        self._memory.setdefault(
            key, artifact if artifact.kind in SHARED_KINDS else blob)
        return artifact

    def _quarantine(self, key: str, entry: Optional[Path]) -> None:
        """Move a corrupt entry aside (``*.art.corrupt`` escapes the
        ``*.art`` glob) and forget its in-memory entry."""
        self.quarantined += 1
        self._memory.pop(key, None)
        if entry is not None:
            with contextlib.suppress(OSError):
                os.replace(entry, entry.parent / (entry.name + ".corrupt"))

    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[Artifact]:
        artifact = self._load(key)
        if artifact is None:
            self.misses += 1
            return None
        self.hits += 1
        return Artifact(artifact.kind, artifact.payload, artifact.key,
                        dict(artifact.meta, cached=True))

    def put(self, key: str, artifact: Artifact) -> None:
        entry = self._entry(key)
        if artifact.kind in SHARED_KINDS:
            # The store's own wrapper: the caller keeps its meta dict.
            self._memory[key] = Artifact(artifact.kind, artifact.payload,
                                         artifact.key, dict(artifact.meta))
            blob = pickle.dumps(artifact) if entry is not None else b""
        else:
            blob = self._memory[key] = pickle.dumps(artifact)
        if entry is not None:
            # Atomic publish: readers see the old entry, no entry, or
            # the complete new one — never a partial write.  The temp
            # name is unique per writer thread, not just per process:
            # the job server's workers share one store.
            tmp = (entry.parent
                   / f"{entry.name}.tmp{os.getpid()}.{threading.get_ident()}")
            tmp.write_bytes(blob)
            os.replace(tmp, entry)

    # ------------------------------------------------------------------
    def __contains__(self, key: str) -> bool:
        return self._load(key) is not None

    def __len__(self) -> int:
        if self.path is not None:
            on_disk = {entry.name[: -len(self.SUFFIX)]
                       for entry in self.path.glob(f"*{self.SUFFIX}")}
            return len(on_disk | set(self._memory))
        return len(self._memory)

    def clear(self) -> None:
        self._memory.clear()
        if self.path is not None:
            for pattern in (f"*{self.SUFFIX}", f"*{self.SUFFIX}.corrupt",
                            f"*{self.SUFFIX}.tmp*"):
                for entry in self.path.glob(pattern):
                    entry.unlink()
        self.hits = 0
        self.misses = 0
        self.quarantined = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        where = f" at {self.path}" if self.path else ""
        return (f"<ArtifactStore {len(self)} entries{where} "
                f"hits={self.hits} misses={self.misses}>")
