"""Diagnostics engine: `Diagnostic`, `AnalysisReport`, and renderers.

Every static analysis in `repro.analysis` reports findings through this
module so the CLI, CI gate, and tests all consume one shape.  A
diagnostic is a (code, severity, location, message, hint) record; a
report is an ordered collection of diagnostics plus per-rule wall-clock
timings and free-form metadata, rendered as text (for humans) or JSON
(for CI artifacts).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Iterable, Iterator, Optional

from repro.sim.probe import Timings


class Severity(IntEnum):
    """Diagnostic severity; `ERROR` gates CI (nonzero exit)."""

    NOTE = 10
    WARNING = 20
    ERROR = 30

    def __str__(self) -> str:
        return self.name.lower()

    @classmethod
    def parse(cls, name: str) -> "Severity":
        try:
            return cls[name.upper()]
        except KeyError:
            raise ValueError(
                f"unknown severity '{name}'; valid: note, warning, error"
            ) from None


@dataclass(frozen=True)
class Location:
    """Where a diagnostic points: function / block / value reference.

    The IR has no source lines, so locations name IR entities; any part
    may be empty (e.g. system lints locate by component name only).
    """

    function: str = ""
    block: str = ""
    ref: str = ""

    def __str__(self) -> str:
        parts = []
        if self.function:
            parts.append(f"@{self.function}")
        if self.block:
            parts.append(self.block)
        where = ".".join(parts)
        if self.ref:
            where = f"{where}:{self.ref}" if where else self.ref
        return where or "<module>"

    def to_dict(self) -> dict:
        return {"function": self.function, "block": self.block, "ref": self.ref}


@dataclass(frozen=True)
class Diagnostic:
    """One finding: rule code, severity, location, message, and a hint."""

    code: str
    severity: Severity
    location: Location
    message: str
    hint: str = ""

    def render(self) -> str:
        line = f"{str(self.severity):>7s} {self.code} {self.location}: {self.message}"
        if self.hint:
            line += f"\n        hint: {self.hint}"
        return line

    def to_dict(self) -> dict:
        data = {
            "code": self.code,
            "severity": str(self.severity),
            "location": self.location.to_dict(),
            "message": self.message,
        }
        if self.hint:
            data["hint"] = self.hint
        return data


class AnalysisReport:
    """An ordered collection of diagnostics plus timings and metadata.

    ``timings`` maps rule/analysis names to accumulated seconds
    (``with report.timings.span(rule):``); nothing emits them on a trace
    channel.  ``meta`` carries analysis-specific payloads (e.g. the
    dependence summary).
    """

    def __init__(self, subject: str = "") -> None:
        self.subject = subject
        self.diagnostics: list[Diagnostic] = []
        self.timings = Timings()
        self.meta: dict = {}

    # -- building ----------------------------------------------------------
    def add(
        self,
        code: str,
        severity: Severity,
        location: Location,
        message: str,
        hint: str = "",
    ) -> Diagnostic:
        diag = Diagnostic(code, severity, location, message, hint)
        self.diagnostics.append(diag)
        return diag

    def extend(self, other: "AnalysisReport") -> "AnalysisReport":
        """Merge another report's findings, timings, and metadata."""
        self.diagnostics.extend(other.diagnostics)
        self.timings.merge(other.timings)
        self.meta.update(other.meta)
        return self

    # -- queries -----------------------------------------------------------
    def by_severity(self, severity: Severity) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is severity]

    @property
    def errors(self) -> list[Diagnostic]:
        return self.by_severity(Severity.ERROR)

    @property
    def warnings(self) -> list[Diagnostic]:
        return self.by_severity(Severity.WARNING)

    @property
    def notes(self) -> list[Diagnostic]:
        return self.by_severity(Severity.NOTE)

    @property
    def has_errors(self) -> bool:
        return any(d.severity is Severity.ERROR for d in self.diagnostics)

    def counts(self) -> dict[str, int]:
        counts = {"error": 0, "warning": 0, "note": 0}
        for diag in self.diagnostics:
            counts[str(diag.severity)] += 1
        return counts

    def exit_code(self) -> int:
        """The CI gate: 1 on any error-severity diagnostic, else 0."""
        return 1 if self.has_errors else 0

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    # -- rendering ---------------------------------------------------------
    def summary_line(self) -> str:
        counts = self.counts()
        body = ", ".join(
            f"{n} {name}{'s' if n != 1 else ''}"
            for name, n in (("error", counts["error"]),
                            ("warning", counts["warning"]),
                            ("note", counts["note"]))
            if n
        )
        subject = f"{self.subject}: " if self.subject else ""
        return f"{subject}{body or 'clean'}"

    def render_text(self, show_timings: bool = False) -> str:
        lines = []
        if self.subject:
            lines.append(f"== {self.subject} ==")
        for diag in sorted(
            self.diagnostics, key=lambda d: (-int(d.severity), d.code)
        ):
            lines.append(diag.render())
        lines.append(self.summary_line())
        if show_timings and self.timings:
            lines.append("timings:")
            for name, seconds in sorted(self.timings.items()):
                lines.append(f"  {name:24s} {seconds * 1e3:8.2f} ms")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "counts": self.counts(),
            "timings": {k: round(v, 6) for k, v in sorted(self.timings.items())},
            "meta": self.meta,
        }

    def render_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def merged(cls, reports: Iterable["AnalysisReport"],
               subject: str = "") -> "AnalysisReport":
        total = cls(subject)
        for report in reports:
            total.extend(report)
        return total

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        counts = self.counts()
        return (f"<AnalysisReport {self.subject or '-'} "
                f"E{counts['error']}/W{counts['warning']}/N{counts['note']}>")

