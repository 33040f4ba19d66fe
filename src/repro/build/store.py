"""Content-addressed store of build artifacts.

The compile-side sibling of `repro.exec.cache.RunCache`: keys are
SHA-256 hashes of (source, function, canonical pass-pipeline spec) —
see `repro.build.artifact.artifact_key` — and values are pickled
`Artifact`s.  Entries live in memory and, when a ``path`` is given, as
``<key>.art`` files on disk, so repeated sweeps across program
invocations skip the frontend entirely.

The on-disk mirror stays readable across crashes by the rule in
DESIGN.md's "Durable storage" paragraph (`repro.durable`): anything
that fails to unpickle (truncated write, foreign bytes, stale class
layout) or unpickles to another key is quarantined as
``<key>.art.corrupt`` and read as a miss.

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

import pickle
from typing import Optional, Union

from repro.build.artifact import Artifact
from repro.durable import DurableStore

#: Artifact kinds held decoded in memory and shared by every hit.
SHARED_KINDS = ("elaboration", "graph")


class ArtifactStore(DurableStore):
    """Key -> `Artifact` store with hit/miss/quarantine accounting."""

    SUFFIX = ".art"

    def _decode(self, key: str, blob: bytes) -> Optional[Artifact]:
        try:
            artifact = pickle.loads(blob)
        except Exception:  # noqa: BLE001 - any unpickling failure is corruption
            return None
        if not isinstance(artifact, Artifact) or artifact.key != key:
            # Readable pickle, wrong contents (e.g. a renamed entry).
            return None
        return artifact

    def _held(self, artifact: Artifact, blob: bytes) -> Union[bytes, Artifact]:
        return artifact if artifact.kind in SHARED_KINDS else blob

    def get(self, key: str) -> Optional[Artifact]:
        artifact = self._lookup(key)
        if artifact is None:
            return None
        return Artifact(artifact.kind, artifact.payload, artifact.key,
                        dict(artifact.meta, cached=True))

    def put(self, key: str, artifact: Artifact) -> None:
        if artifact.kind in SHARED_KINDS:
            # The store's own wrapper: the caller keeps its meta dict.
            held = Artifact(artifact.kind, artifact.payload, artifact.key,
                            dict(artifact.meta))
            self._put(key, held, lambda: pickle.dumps(artifact))
        else:
            blob = pickle.dumps(artifact)
            self._put(key, blob, lambda: blob)
