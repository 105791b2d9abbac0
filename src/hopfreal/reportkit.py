"""Uniform pass/fail reporting for the verification operations.

Every ``verify_*`` operation returns a :class:`CheckReport`: a flat list of
named exact checks, each True or False, plus convenience accessors.  Failures
are report content, never exceptions, so a report can describe a broken input
in full instead of stopping at the first defect.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CheckReport:
    title: str
    checks: list = field(default_factory=list)  # (description, ok) pairs

    def record(self, description: str, ok: bool) -> bool:
        self.checks.append((description, bool(ok)))
        return ok

    @property
    def ok(self) -> bool:
        return all(ok for _, ok in self.checks)

    def failures(self) -> list:
        return [desc for desc, ok in self.checks if not ok]

    def summary(self) -> str:
        bad = len(self.failures())
        verdict = "PASS" if bad == 0 else "FAIL"
        return f"{self.title}: {verdict} ({len(self.checks)} checks, {bad} failed)"
