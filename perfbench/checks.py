"""Output checks: every measured result is compared with a reference.

The checks run after the timed section.  Each checked operation is
counted as attempted, and as failed when it raised or its matches
differ from the reference; ``ops_failed_frac`` is failed ÷ attempted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from repro.core.match import MatchResult
from repro.core.serial import match_serial_python


@dataclass
class Tally:
    """Attempted and failed operation counts, with the first failures."""

    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> bool:
        """Count one checked operation; keep a note when it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 10:
                self.notes.append(what)
        return ok

    def expect_equal(self, got, wants, what: str) -> bool:
        """Count one operation whose result must equal every reference.

        ``wants`` is one :class:`MatchResult` or a sequence of them.
        ``got`` may be the exception the operation raised instead of
        returning; that counts as failed.
        """
        if isinstance(got, BaseException):
            return self.record(False, f"{what}: raised {got!r}")
        if isinstance(wants, MatchResult):
            wants = (wants,)
        for want in wants:
            if got != want:
                return self.record(
                    False,
                    f"{what}: {len(got)} matches, reference has {len(want)}",
                )
        return self.record(True, what)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def python_reference(dfa, text) -> MatchResult:
    """Matches of the pure-Python serial scan (paper Fig. 2)."""
    return MatchResult.from_pairs(match_serial_python(dfa, text))


def naive_reference(patterns: Sequence[bytes], text: bytes) -> MatchResult:
    """Matches of a per-pattern substring search, independent of any DFA.

    Checks the automaton itself: every occurrence of every pattern,
    overlapping ones included, as ``(end, pattern_id)``.
    """
    ends: List[int] = []
    pids: List[int] = []
    for pid, pat in enumerate(patterns):
        pos = text.find(pat)
        while pos >= 0:
            ends.append(pos + len(pat) - 1)
            pids.append(pid)
            pos = text.find(pat, pos + 1)
    return MatchResult.from_pairs(zip(ends, pids))
