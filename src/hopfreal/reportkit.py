"""Uniform pass/fail reporting for the verification operations.

Every ``verify_*`` operation returns a :class:`CheckReport` of named exact
checks, each True or False.  A failed check keeps its text; a passed one is
only counted, and its text is never built: :meth:`CheckReport.record` takes
the description as a function and its arguments, and calls it only on
failure.  Failures are report content, never exceptions, so a report can
describe a broken input in full instead of stopping at the first defect.
"""

from __future__ import annotations


class CheckReport:
    def __init__(self, title: str):
        self.title = title
        self.passed = 0
        self.failed = []  # the text of each failed check, in order

    def record(self, ok: bool, describe, *args) -> None:
        """Count a passed check, or keep describe(*args) for a failed one."""
        if ok:
            self.passed += 1
        else:
            self.failed.append(describe(*args))

    @property
    def ok(self) -> bool:
        return not self.failed

    def failures(self) -> list:
        return self.failed

    def summary(self) -> str:
        bad = len(self.failed)
        verdict = "PASS" if bad == 0 else "FAIL"
        return f"{self.title}: {verdict} ({self.passed + bad} checks, {bad} failed)"
