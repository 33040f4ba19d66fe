"""Structured failure records for hardened execution.

When a sweep point crashes, hangs, or times out, the failure is folded
into a :class:`FailureRecord` instead of tearing down the whole sweep.
The record is a plain-data object (picklable, JSON-serializable) so it
can cross process-pool boundaries without exception pickling and land
in result CSVs/summaries untouched.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from typing import Optional

from repro.sim.eventq import SimulationHang

#: How many trailing traceback lines to keep on a record.
TRACEBACK_TAIL_LINES = 12

#: Ceiling for a job server job's exponential retry backoff.
RETRY_BACKOFF_CAP_S = 30.0


def retry_delay(backoff_s: float, attempt: int,
                cap_s: float = RETRY_BACKOFF_CAP_S) -> float:
    """Deterministic exponential backoff: ``backoff * 2^(attempt-1)``,
    capped — attempt 1 waits ``backoff_s``, 2 waits double, ...  The
    one schedule for retried sweep workers and retried server jobs."""
    return min(backoff_s * (2 ** max(0, attempt - 1)), cap_s)


@dataclass
class FailureRecord:
    """Why one run failed: exception type, message, traceback tail."""

    error_type: str
    message: str
    traceback_tail: list = field(default_factory=list)
    attempts: int = 1
    #: Coarse classification: "crash" (exception), "hang" (deadlock or
    #: livelock watchdog trip), or "timeout" (wall-clock watchdog trip).
    reason: str = "crash"

    @classmethod
    def from_exception(cls, exc: BaseException, attempts: int = 1) -> "FailureRecord":
        tail = "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        ).splitlines()[-TRACEBACK_TAIL_LINES:]
        if isinstance(exc, SimulationHang):
            reason = "timeout" if exc.reason == "wallclock" else "hang"
        else:
            reason = "crash"
        return cls(
            error_type=type(exc).__name__,
            message=str(exc),
            traceback_tail=tail,
            attempts=attempts,
            reason=reason,
        )

    def summary(self) -> str:
        first_line = self.message.splitlines()[0] if self.message else ""
        return f"{self.error_type}: {first_line} (attempt {self.attempts})"

    def to_dict(self) -> dict:
        return {
            "error_type": self.error_type,
            "message": self.message,
            "traceback_tail": list(self.traceback_tail),
            "attempts": self.attempts,
            "reason": self.reason,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FailureRecord":
        return cls(
            error_type=payload["error_type"],
            message=payload["message"],
            traceback_tail=list(payload.get("traceback_tail", [])),
            attempts=int(payload.get("attempts", 1)),
            reason=payload.get("reason", "crash"),
        )


class SweepPointError(RuntimeError):
    """Raised in ``strict`` mode when a sweep point fails."""

    def __init__(self, params: dict, failure: FailureRecord) -> None:
        self.params = dict(params)
        self.failure = failure
        super().__init__(f"sweep point {self.params} failed: {failure.summary()}")
