"""In-memory span recorder for the traced benchmark run.

A span is one call into a layer: its name, start and end (perf_counter
seconds), the index of the span that was open when it started, and the
request id of the operation it belongs to. Counts are recorded at the same
call sites. Nothing is written until the run ends.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: str | None


class Untraced:
    """Calls straight through; the timed path of an untraced run."""

    enabled = False
    request = None

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, value):
        pass


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.request: str | None = None
        self._open: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)
        self._open.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[index] = Span(name, start, end, parent, self.request)

    def count(self, name, value):
        self.counts[name] += value

    def to_json(self) -> list[dict]:
        t0 = self.spans[0].start if self.spans else 0.0
        return [{"name": s.name, "start": s.start - t0, "end": s.end - t0,
                 "parent": s.parent, "request": s.request} for s in self.spans]


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    reach = float("-inf")
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        clipped = [(max(lo, s.start), min(hi, s.end)) for lo, hi in children[i]]
        out.append((s.end - s.start) - _covered(clipped))
    return out


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    totals: dict[str, float] = defaultdict(float)
    for s, t in zip(spans, self_times(spans)):
        totals[s.name] += t
    return dict(totals)
