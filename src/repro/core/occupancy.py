"""Cycle-level occupancy and stall profiling (Sec. III-C2).

The runtime engine reports, each cycle, what it issued and what it is
waiting on; the tracker aggregates the counters behind Figs. 14 and 15:
stalled-vs-new-execution cycles, stall-source breakdown (which kinds of
unfinished operations a stalled cycle was waiting for), per-class issue
mix, and functional-unit occupancy.
"""

from __future__ import annotations

from dataclasses import dataclass, field


#: Issue kinds, in the order a cycle that issued several of them
#: records them: the key order of ``issue_kind_cycles`` is first-issue
#: cycle, then this order (not the process's string-hash order).
ISSUE_KINDS = ("load", "store", "fp", "int")


@dataclass
class OccupancyTracker:
    cycles: int = 0
    issue_cycles: int = 0          # cycles that scheduled >= 1 new operation
    stall_cycles: int = 0          # active cycles with no new issue
    idle_cycles: int = 0           # nothing outstanding (e.g. waiting on start)
    issued_ops: int = 0
    issued_by_class: dict[str, int] = field(default_factory=dict)
    # Stall-source histogram: frozenset of outstanding kinds -> cycles.
    # Kinds: 'load', 'store', 'compute'.
    stall_sources: dict[frozenset, int] = field(default_factory=dict)
    # Busy unit-cycles per FU class (for occupancy percentages).
    fu_busy_cycles: dict[str, int] = field(default_factory=dict)
    # Issue mix: cycles in which >=1 load / store / fp op issued.
    issue_kind_cycles: dict[str, int] = field(default_factory=dict)
    # Entry-level accounting: ready-but-blocked operation-cycles, per kind.
    blocked_op_cycles: int = 0
    blocked_by_kind: dict[str, int] = field(default_factory=dict)
    issued_op_total: int = 0

    # ------------------------------------------------------------------
    def record_cycle(
        self,
        issued: list[str],
        outstanding_kinds: frozenset,
        busy_units: dict[str, int],
        issued_kinds: frozenset,
        blocked_kinds: dict[str, int] | None = None,
        issued_total: int = 0,
    ) -> None:
        """Record one engine cycle.

        ``issued`` lists the FU classes of newly scheduled compute ops
        (may be empty); ``outstanding_kinds`` says what in-flight work
        exists ('load'/'store'/'compute'); ``busy_units`` counts busy
        units per class this cycle; ``issued_kinds`` classifies what
        was scheduled ('load'/'store'/'fp'/'int').
        """
        self.cycles += 1
        self.issued_op_total += issued_total or len(issued)
        for kind, count in (blocked_kinds or {}).items():
            self.blocked_op_cycles += count
            self.blocked_by_kind[kind] = self.blocked_by_kind.get(kind, 0) + count
        for fu_class, count in busy_units.items():
            self.fu_busy_cycles[fu_class] = self.fu_busy_cycles.get(fu_class, 0) + count
        if issued or issued_kinds:
            self.issue_cycles += 1
            self.issued_ops += len(issued)
            for fu_class in issued:
                self.issued_by_class[fu_class] = self.issued_by_class.get(fu_class, 0) + 1
            for kind in sorted(issued_kinds, key=ISSUE_KINDS.index):
                self.issue_kind_cycles[kind] = self.issue_kind_cycles.get(kind, 0) + 1
        elif outstanding_kinds:
            self.stall_cycles += 1
            self.stall_sources[outstanding_kinds] = (
                self.stall_sources.get(outstanding_kinds, 0) + 1
            )
        else:
            self.idle_cycles += 1

    # -- derived metrics ---------------------------------------------------
    # Fractions are explicitly 0.0 for zero-active-cycle trackers (a run
    # that never started, was fault-killed, or timed out) so failed sweep
    # points still serialize valid rows instead of dividing by zero.
    def stall_fraction(self) -> float:
        active = self.cycles - self.idle_cycles
        return self.stall_cycles / active if active > 0 else 0.0

    def issue_fraction(self) -> float:
        active = self.cycles - self.idle_cycles
        return self.issue_cycles / active if active > 0 else 0.0

    def fu_occupancy(self, fu_class: str, unit_count: int) -> float:
        """Average fraction of ``fu_class`` units busy per active cycle."""
        active = self.cycles - self.idle_cycles
        if active <= 0:
            return 0.0
        busy = self.fu_busy_cycles.get(fu_class, 0)
        return busy / (active * max(1, unit_count))

    def stall_breakdown(self) -> dict[str, float]:
        """Fraction of stalled cycles per waiting-reason combination.

        Keys are sorted '+'-joined kind names, e.g. ``'compute+load'``
        (the paper's "Load and Computation" bands in Fig. 14b).
        """
        total = max(1, self.stall_cycles)
        result: dict[str, float] = {}
        for kinds, count in self.stall_sources.items():
            key = "+".join(sorted(kinds)) if kinds else "none"
            result[key] = result.get(key, 0.0) + count / total
        return result

    def entry_stall_fraction(self) -> float:
        """Ready-but-blocked operation-cycles as a fraction of all
        scheduling slots — the paper's Fig. 14(a) 'stalled cycle' metric
        at instruction granularity."""
        total = self.blocked_op_cycles + self.issued_op_total
        return self.blocked_op_cycles / total if total else 0.0

    def blocked_breakdown(self) -> dict[str, float]:
        """Which kinds of operations the blocked entry-cycles were
        (Fig. 14(b)'s unfinished-operation breakdown)."""
        total = max(1, self.blocked_op_cycles)
        return {k: v / total for k, v in self.blocked_by_kind.items()}

    def issue_mix(self) -> dict[str, float]:
        """Fraction of issue cycles that scheduled each kind of work."""
        total = max(1, self.issue_cycles)
        return {kind: count / total for kind, count in self.issue_kind_cycles.items()}

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe representation; frozenset histogram keys become
        sorted '+'-joined strings (empty set -> '')."""
        return {
            "cycles": self.cycles,
            "issue_cycles": self.issue_cycles,
            "stall_cycles": self.stall_cycles,
            "idle_cycles": self.idle_cycles,
            "issued_ops": self.issued_ops,
            "issued_by_class": dict(self.issued_by_class),
            "stall_sources": {
                "+".join(sorted(kinds)): count
                for kinds, count in sorted(
                    self.stall_sources.items(), key=lambda item: sorted(item[0])
                )
            },
            "fu_busy_cycles": dict(self.fu_busy_cycles),
            "issue_kind_cycles": dict(self.issue_kind_cycles),
            "blocked_op_cycles": self.blocked_op_cycles,
            "blocked_by_kind": dict(self.blocked_by_kind),
            "issued_op_total": self.issued_op_total,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "OccupancyTracker":
        data = dict(data)
        data["stall_sources"] = {
            frozenset(key.split("+")) if key else frozenset(): count
            for key, count in data.get("stall_sources", {}).items()
        }
        return cls(**data)
