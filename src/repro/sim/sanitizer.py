"""Runtime access sanitizer (TSan-style, interval-granular).

Attached to a `System` via :meth:`System.attach_probe`, the sanitizer
observes two streams on the instrumentation bus (`repro.sim.probe`):

* ``access`` — a memory access, recorded when an agent (the host, a
  DMA engine, an accelerator's memory controller) is attributed; from
  the SPM/DRAM/cache request paths and ideal-memory completions.
* ``sync`` — one half of every synchronization primitive the platform
  offers: MMR control writes (release) and the launch they trigger
  (acquire), interrupt raise/wait, DMA command/done handoffs, and
  stream-buffer token push/pop.

Ordering is tracked with per-agent vector clocks, so a conflict is
flagged whenever two agents touch overlapping bytes, at least one
writes, and no release/acquire chain orders the accesses — regardless
of how the event queue happened to interleave them.  That determinism
is what lets the scenario cross-validation harness treat a sanitizer
hit as ground truth for the static SYS304 rule.

It watches memory (`repro.sim.probe.watches_memory`), so the graph
engine drives a run it observes through the ports that make the calls.

Shadow state is an interval map bucketed by address, with one entry per
distinct (agent, range) pair per epoch, so tight accelerator loops that
re-touch the same scratchpad words stay O(distinct ranges), not
O(accesses).
"""

from __future__ import annotations

from typing import Hashable

from repro.sim.probe import Probe

_BUCKET_BYTES = 256


class AccessSanitizer(Probe):
    """Happens-before race detector over attributed memory accesses."""

    def __init__(self, max_reports: int = 64) -> None:
        self.max_reports = max_reports
        # agent -> vector clock {agent: epoch}; every agent starts at
        # epoch 1 so "never synchronized" (epoch 0) is distinguishable.
        self._vc: dict[str, dict[str, int]] = {}
        # sync key -> clock published by the last release(s).
        self._keys: dict[Hashable, dict[str, int]] = {}
        # bucket -> {(agent, lo, hi): (epoch, tick)} for writes/reads.
        self._writes: dict[int, dict[tuple, tuple[int, int]]] = {}
        self._reads: dict[int, dict[tuple, tuple[int, int]]] = {}
        self._reported: set = set()
        self.races: list[dict] = []
        self.num_records = 0
        self.num_syncs = 0

    # ------------------------------------------------------------------
    def _clock(self, agent: str) -> dict[str, int]:
        vc = self._vc.get(agent)
        if vc is None:
            vc = {agent: 1}
            self._vc[agent] = vc
        return vc

    # -- bus hooks -----------------------------------------------------
    def access(self, obj, agent, addr, size, is_write, tick) -> None:
        if agent is not None:
            self.record(agent, addr, size, is_write, tick)

    def sync(self, agent, key, release) -> None:
        if release:
            self.release(agent, key)
        else:
            self.acquire(agent, key)

    # -- synchronization -----------------------------------------------
    def release(self, agent: str, key: Hashable) -> None:
        """Publish ``agent``'s history on ``key`` (the release half)."""
        self.num_syncs += 1
        vc = self._clock(agent)
        key_clock = self._keys.setdefault(key, {})
        for other, epoch in vc.items():
            if key_clock.get(other, 0) < epoch:
                key_clock[other] = epoch
        # Accesses after the release belong to a new epoch, which the
        # key clock does not cover.
        vc[agent] += 1

    def acquire(self, agent: str, key: Hashable) -> None:
        """Inherit the history published on ``key`` (the acquire half)."""
        self.num_syncs += 1
        key_clock = self._keys.get(key)
        if not key_clock:
            return
        vc = self._clock(agent)
        for other, epoch in key_clock.items():
            if vc.get(other, 0) < epoch:
                vc[other] = epoch

    # -- access recording ----------------------------------------------
    def record(self, agent: str, addr: int, size: int, is_write: bool,
               tick: int) -> None:
        self.num_records += 1
        vc = self._clock(agent)
        my_epoch = vc[agent]
        lo, hi = addr, addr + size
        first_bucket = lo // _BUCKET_BYTES
        last_bucket = (hi - 1) // _BUCKET_BYTES
        buckets = range(first_bucket, last_bucket + 1)
        # A write conflicts with unordered writes and reads; a read
        # conflicts only with unordered writes.
        against = (self._writes, self._reads) if is_write else (self._writes,)
        seen: set = set()
        for shadow in against:
            prior_is_write = shadow is self._writes
            for bucket in buckets:
                entries = shadow.get(bucket)
                if not entries:
                    continue
                for entry_key, (epoch, prior_tick) in entries.items():
                    other, other_lo, other_hi = entry_key
                    if other == agent or entry_key in seen:
                        continue
                    if other_lo >= hi or other_hi <= lo:
                        continue
                    seen.add(entry_key)
                    if vc.get(other, 0) >= epoch:
                        continue  # ordered before us — not a race
                    self._report(agent, other, is_write, prior_is_write,
                                 max(lo, other_lo), min(hi, other_hi),
                                 prior_tick, tick)
        store = self._writes if is_write else self._reads
        entry_key = (agent, lo, hi)
        for bucket in buckets:
            store.setdefault(bucket, {})[entry_key] = (my_epoch, tick)

    def _report(self, agent: str, other: str, is_write: bool,
                prior_is_write: bool, lo: int, hi: int,
                prior_tick: int, tick: int) -> None:
        pair = tuple(sorted((agent, other)))
        kind = ("write-write" if is_write and prior_is_write
                else "read-write")
        dedup = (pair, kind, lo // _BUCKET_BYTES)
        if dedup in self._reported or len(self.races) >= self.max_reports:
            return
        self._reported.add(dedup)
        self.races.append({
            "agents": list(pair),
            "kind": kind,
            "range": [lo, hi],
            "ticks": [prior_tick, tick],
        })

    # ------------------------------------------------------------------
    @property
    def clean(self) -> bool:
        return not self.races

    def summary(self) -> dict:
        return {
            "clean": self.clean,
            "races": list(self.races),
            "num_records": self.num_records,
            "num_syncs": self.num_syncs,
            "agents": sorted(self._vc),
        }
