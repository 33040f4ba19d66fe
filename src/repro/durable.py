"""Crash-safe files: atomic publish, quarantine, and a keyed store.

The one owner of the rule in DESIGN.md's "Durable storage" paragraph:
`RunCache`, `ArtifactStore` and `JobJournal` write every durable file
through `publish` and set every corrupt one aside through `quarantine`.
"""

from __future__ import annotations

import contextlib
import os
import threading
from pathlib import Path
from typing import BinaryIO, Callable, Optional, Union

TMP = ".tmp"
CORRUPT = ".corrupt"


def publish(path: Path,
            data: Union[bytes, Callable[[BinaryIO], None]]) -> None:
    """Atomically make ``path`` hold ``data``: the bytes, or a callback
    that writes them to the binary file it is given.

    Readers see the old file, no file, or the complete new one.  The
    temp name is unique per process *and* thread: the job server's
    worker threads share one store.  A failed publish removes its temp
    file and raises.
    """
    tmp = path.with_name(
        f"{path.name}{TMP}{os.getpid()}.{threading.get_ident()}")
    try:
        with open(tmp, "wb") as fh:
            if callable(data):
                data(fh)
            else:
                fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def quarantine(path: Path, tail: Optional[bytes] = None) -> None:
    """Best effort: rename a corrupt ``path`` to ``<name>.corrupt``, or
    with ``tail`` append just those bytes to it (a damaged journal tail)."""
    corrupt = path.with_name(path.name + CORRUPT)
    with contextlib.suppress(OSError):
        if tail is None:
            os.replace(path, corrupt)
        else:
            with open(corrupt, "ab") as fh:
                fh.write(tail)


class DurableStore:
    """Key -> value store in memory and, with a ``path``, on disk as
    ``<key><SUFFIX>`` files, with hit/miss/quarantine accounting.

    A subclass sets `SUFFIX`, implements `_decode`, and hands out hits
    from `_lookup` in its own ``get``.  Memory holds each entry decoded
    or, where every hit must get a private copy, as encoded bytes that
    each load decodes again.
    """

    SUFFIX = ""

    def __init__(self, path: Optional[Union[str, Path]] = None) -> None:
        self.path = Path(path) if path is not None else None
        if self.path is not None:
            self.path.mkdir(parents=True, exist_ok=True)
        self._memory: dict = {}
        self.hits = 0
        self.misses = 0
        self.quarantined = 0

    def _decode(self, key: str, blob: bytes):
        """The value ``blob`` holds for ``key``, or None when corrupt."""
        raise NotImplementedError

    def _held(self, value, blob: bytes):
        """What memory keeps for a value decoded from disk."""
        return value

    def _entry(self, key: str) -> Path:
        return self.path / f"{key}{self.SUFFIX}"

    def _load(self, key: str):
        held = self._memory.get(key)
        if held is not None and not isinstance(held, bytes):
            return held
        blob = held
        if blob is None:
            if self.path is None:
                return None
            try:
                blob = self._entry(key).read_bytes()
            except OSError:
                return None  # absent (or unreadable): plain miss
        value = self._decode(key, blob)
        if value is None:
            self._quarantine(key)
            return None
        self._memory.setdefault(key, self._held(value, blob))
        return value

    def _quarantine(self, key: str) -> None:
        """Forget ``key`` and move its file aside, out of the
        ``*<SUFFIX>`` glob that lookups and len use."""
        self.quarantined += 1
        self._memory.pop(key, None)
        if self.path is not None:
            quarantine(self._entry(key))

    def _lookup(self, key: str):
        """`_load` with hit/miss accounting."""
        value = self._load(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def _put(self, key: str, held, encode: Callable[[], bytes]) -> None:
        """Hold ``held`` under ``key`` and publish ``encode()`` to disk."""
        self._memory[key] = held
        if self.path is not None:
            publish(self._entry(key), encode())

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
            for pattern in ("", CORRUPT, f"{TMP}*"):
                for entry in self.path.glob(f"*{self.SUFFIX}{pattern}"):
                    entry.unlink()
        self.hits = 0
        self.misses = 0
        self.quarantined = 0

    def stats(self) -> dict:
        return {"entries": len(self), "hits": self.hits,
                "misses": self.misses, "quarantined": self.quarantined}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        where = f" at {self.path}" if self.path else ""
        return (f"<{type(self).__name__} {len(self)} entries{where} "
                f"hits={self.hits} misses={self.misses}>")
