"""Violation records and the report the sanitizer accumulates them in.

A :class:`Violation` is one observed break of a simulated-RDMA invariant:
which checker fired, *when* in simulated time, *where* (the QP / lock /
tenant / process context the hook site knew about), at which pipeline
``stage`` (post, complete, transition, finalize, sweep...), and a
human-readable message.  :class:`CheckReport` collects them with a bounded
record list (the per-checker counters always stay exact, so a violation
storm cannot hide its own size).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

__all__ = ["CheckReport", "CheckViolationError", "Violation"]

#: Full Violation records kept per report; beyond this only counters grow.
MAX_RECORDS = 1000


@dataclass(frozen=True, slots=True)
class Violation:
    """One invariant break, with enough context to replay/debug it."""

    checker: str      # which checker fired ("conservation", "locks", ...)
    time_ns: float    # simulated time of detection
    where: str        # context: qp/lock/tenant/process identity
    stage: str        # hook site: "post", "complete", "finalize", ...
    message: str

    def render(self) -> str:
        return (f"[{self.checker}] t={self.time_ns:.1f}ns {self.where} "
                f"({self.stage}): {self.message}")


class CheckViolationError(AssertionError):
    """Raised by :meth:`CheckReport.raise_if_violations`.

    An ``AssertionError`` subclass so pytest renders it as a plain test
    failure; the offending :class:`CheckReport` rides along as ``.report``.
    """

    def __init__(self, report: "CheckReport"):
        super().__init__(report.render())
        self.report = report


class CheckReport:
    """Accumulates violations from one (or several merged) sanitizer(s)."""

    def __init__(self):
        self.violations: list[Violation] = []
        self.counts: Counter = Counter()   # checker name -> violation count
        self.dropped = 0                   # records beyond MAX_RECORDS
        self.finalized = False

    def add(self, violation: Violation) -> None:
        self.counts[violation.checker] += 1
        if len(self.violations) < MAX_RECORDS:
            self.violations.append(violation)
        else:
            self.dropped += 1

    def merge(self, other: "CheckReport") -> None:
        """Fold another report in (the runner merges per-scenario reports)."""
        for v in other.violations:
            self.add(v)
        self.dropped += other.dropped
        # counts of other's dropped records are already in other.counts
        for name, n in other.counts.items():
            self.counts[name] += n - sum(
                1 for v in other.violations if v.checker == name)

    @property
    def ok(self) -> bool:
        return not self.counts

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def raise_if_violations(self) -> None:
        if not self.ok:
            raise CheckViolationError(self)

    def render(self) -> str:
        if self.ok:
            return "check: OK (0 violations)"
        lines = [f"check: {self.total} violation(s)"]
        for name in sorted(self.counts):
            lines.append(f"  {name}: {self.counts[name]}")
        for v in self.violations[:50]:
            lines.append("  " + v.render())
        if len(self.violations) > 50 or self.dropped:
            hidden = len(self.violations) - 50 + self.dropped
            lines.append(f"  ... and {max(hidden, 0)} more")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "ok" if self.ok else f"{self.total} violations"
        return f"<CheckReport {state}>"
