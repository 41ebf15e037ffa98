"""Counting checked operations: every output check is one attempt."""

from __future__ import annotations

import sys


class Outcome:
    """Attempted and failed operations of one run, with failure notes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        """Count one operation; it fails when ``ok`` is false."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)
                print(f"check failed: {what}", file=sys.stderr)
        return ok

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0
