"""In-memory spans around library entry points, and the summary arithmetic.

The benchmark patches public functions and methods of `mipsynth` from the
outside; the library itself is not changed.  Each call of a patched entry
point records one span (name, start, end, parent).  A span's self time is its
duration minus the part of its interval that its child spans cover.

Nothing here imports numpy or mipsynth, so the arithmetic is testable alone.
"""

from __future__ import annotations

import functools
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    """Records spans while `recording` is active; off costs one flag test."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.active = False
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    @contextmanager
    def recording(self):
        self.active = True
        try:
            yield self
        finally:
            self.active = False

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, time.perf_counter(), math.nan, parent)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def patch(self, owner, attr: str, name: str, on_return=None) -> None:
        """Replace `owner.attr` by a wrapper that records a span named `name`.

        `on_return(args, result, span)` runs after the call while recording,
        so counts can be read off arguments and results at the boundary.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            with tracer.span(name) as sp:
                result = original(*args, **kwargs)
            if on_return is not None:
                on_return(args, result, sp)
            return result

        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def unpatch(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Per-span self time: duration minus the time its child spans cover.

    Spans come from one thread, so the children of a span never overlap.
    """
    out = [sp.end - sp.start for sp in spans]
    for sp in spans:
        if sp.parent is not None:
            out[sp.parent] -= sp.end - sp.start
    return out


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    out: dict[str, float] = {}
    for sp, t in zip(spans, self_times(spans)):
        out[sp.name] = out.get(sp.name, 0.0) + t
    return out


def tail(samples: list[float], beyond: int = 10) -> tuple[float, float, int]:
    """Highest percentile that still has `beyond` samples above it.

    Returns (value, percentile, sample count).  The value is the order
    statistic with exactly `beyond` samples above it; its percentile is
    100 * (n - beyond) / n.  Fewer than beyond + 1 samples have no such
    percentile and raise ValueError.
    """
    n = len(samples)
    if n <= beyond:
        raise ValueError(f"{n} samples leave no percentile with {beyond} beyond it")
    ordered = sorted(samples)
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, n
