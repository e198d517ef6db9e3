"""Busy-interval timelines and overlap metrics.

The paper visualizes its central claim with *active timelines* of the two
core types (Figs. 1 and 15): under Baymax the Tensor-core and CUDA-core
busy intervals never overlap; under Tacker they do.  This module provides
the interval bookkeeping those figures need, plus the overlap-rate metric
of Eq. 11 used in Fig. 20.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..errors import SimulationError


@dataclass(frozen=True)
class Interval:
    """A half-open busy interval ``[start, end)``."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise SimulationError(f"interval ends before it starts: {self}")

    @property
    def length(self) -> float:
        return self.end - self.start

    def intersects(self, other: "Interval") -> bool:
        return self.start < other.end and other.start < self.end

    def intersection(self, other: "Interval") -> Optional["Interval"]:
        if not self.intersects(other):
            return None
        return Interval(max(self.start, other.start), min(self.end, other.end))

    def shifted(self, offset: float) -> "Interval":
        return Interval(self.start + offset, self.end + offset)


@dataclass
class Timeline:
    """An append-only sequence of busy intervals.

    Producers call :meth:`open` when a unit becomes busy and :meth:`close`
    when it goes idle; consumers read :attr:`intervals` or aggregate with
    :meth:`total`.
    """

    intervals: list[Interval] = field(default_factory=list)
    _open_start: Optional[float] = None

    def open(self, time: float) -> None:
        """Mark the unit busy from ``time`` (idempotent while open)."""
        if self._open_start is None:
            self._open_start = time

    def close(self, time: float) -> None:
        """Mark the unit idle at ``time`` (no-op when already idle)."""
        if self._open_start is None:
            return
        if time > self._open_start:
            self.intervals.append(Interval(self._open_start, time))
        self._open_start = None

    def add(self, start: float, end: float) -> None:
        """Append a closed interval directly."""
        if end > start:
            self.intervals.append(Interval(start, end))

    def total(self) -> float:
        """Total busy time (intervals are merged first to dedupe overlap)."""
        return sum(i.length for i in self.normalized().intervals)

    def normalized(self) -> "Timeline":
        """A copy with sorted, merged, non-overlapping intervals."""
        merged: list[Interval] = []
        for interval in sorted(self.intervals, key=lambda i: (i.start, i.end)):
            if merged and interval.start <= merged[-1].end + 1e-12:
                last = merged.pop()
                merged.append(Interval(last.start, max(last.end, interval.end)))
            else:
                merged.append(interval)
        return Timeline(merged)

    def intersection(self, other: "Timeline") -> "Timeline":
        """Intervals during which *both* timelines are busy."""
        result = Timeline()
        a = self.normalized().intervals
        b = other.normalized().intervals
        i = j = 0
        while i < len(a) and j < len(b):
            overlap = a[i].intersection(b[j])
            if overlap is not None and overlap.length > 0:
                result.intervals.append(overlap)
            if a[i].end <= b[j].end:
                i += 1
            else:
                j += 1
        return result

    def shifted(self, offset: float) -> "Timeline":
        """A copy translated in time (used when stitching kernel launches)."""
        return Timeline([i.shifted(offset) for i in self.intervals])

    def extend(self, other: "Timeline") -> None:
        """Append another timeline's intervals in place."""
        self.intervals.extend(other.intervals)

    def span(self) -> float:
        """End of the last interval (0 for an empty timeline)."""
        if not self.intervals:
            return 0.0
        return max(i.end for i in self.intervals)


def merge_busy(timelines: Iterable[Timeline]) -> Timeline:
    """Union of several busy timelines (busy when *any* unit is busy)."""
    merged = Timeline()
    for timeline in timelines:
        merged.intervals.extend(timeline.intervals)
    return merged.normalized()


def overlap_rate(solo_a: float, solo_b: float, corun: float) -> float:
    """Eq. 11: ``(Ta + Tb - Tcorun) / (Ta + Tb)``.

    Ranges from 0 (fully serial co-run) to 0.5 (perfect overlap of two
    equal-duration kernels); clamped below at 0 because an unlucky co-run
    can be slightly slower than serial execution.
    """
    total = solo_a + solo_b
    if total <= 0:
        raise SimulationError("solo durations must be positive")
    return max(0.0, (total - corun) / total)
