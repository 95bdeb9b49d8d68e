"""Measurement helpers: band means and quartiles, the harness's span
recorder and its self-time arithmetic, resident memory, and the
environment block.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import resource
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

#: Latency "percentiles" are means over a band of ranks, in percent of
#: the sorted sample.  The operations here are not a continuous sample:
#: they are a fixed grid (``paper_sweep``), 128 repeated queries
#: (``served_repeat``) or five query classes over 16 frequency pairs,
#: so their sorted latencies form a ladder, and a single rank sits on
#: one rung or the next depending on a handful of samples — measured on
#: ``paper_sweep``, the nearest-rank median stood between a 16.7 ms and
#: a 20.9 ms rung and moved 23% between ten runs of the same code.  A
#: band averages over the rungs around the rank.  The p95 band stops at
#: 99%: the top hundredth is collector pauses of 0.2-0.5 s, a few per
#: window, whose count would otherwise decide the mean.
P50_BAND = (40.0, 60.0)
P95_BAND = (90.0, 99.0)
#: A band mean is refused with fewer samples than this in the band.
MIN_IN_BAND = 5


def band_mean(samples: Sequence[float], band: Sequence[float]) -> float:
    """Mean of the sorted samples from rank ``band[0]``% (exclusive) to
    rank ``band[1]``% (inclusive, rounded up).  Refuses a band holding
    fewer than :data:`MIN_IN_BAND` samples."""
    ordered = sorted(samples)
    n = len(ordered)
    first = int(n * band[0] / 100.0)
    last = math.ceil(n * band[1] / 100.0)
    if last - first < MIN_IN_BAND:
        raise ValueError(
            f"{band[0]:g}-{band[1]:g}% of {n} samples is "
            f"{max(0, last - first)} samples (need {MIN_IN_BAND})"
        )
    return sum(ordered[first:last]) / (last - first)


def quartile(values: Sequence[float], which: int) -> float:
    """Quartile ``which`` (1 = lower, 3 = upper) of a few per-round
    values, by linear interpolation between ranks, end points included
    (``statistics.quantiles(..., method="inclusive")``)."""
    if len(values) < 2:
        raise ValueError("a quartile needs two values")
    return statistics.quantiles(values, n=4, method="inclusive")[which - 1]


def median(samples: Sequence[float]) -> float:
    """Plain median (set-up repeats, per-round values)."""
    s = sorted(samples)
    n = len(s)
    if n == 0:
        raise ValueError("no samples")
    mid = n // 2
    return s[mid] if n % 2 else (s[mid - 1] + s[mid]) / 2.0


class Span:
    __slots__ = ("name", "start", "end", "parent", "op")

    def __init__(self, name: str, start: float, parent: int,
                 op: object) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op}


class SpanRecorder:
    """In-memory span list for the traced pass.  Spans nest by call
    order on one thread; ``parent`` is an index into :attr:`spans`
    (-1 for a root).  With ``enabled=False`` :meth:`span` does nothing,
    which is how the traced pass is re-run untraced to price itself."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, op: object = None) -> Iterator[Optional[Span]]:
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1] if self._stack else -1
        if op is None and parent >= 0:
            op = self.spans[parent].op
        span = Span(name, perf_counter(), parent, op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._stack.pop()


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Busy time per span name: each span's duration minus the part of
    it covered by its direct children, summed by name."""
    child_total = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_total[span.parent] += span.end - span.start
    out: Dict[str, float] = {}
    for span, covered in zip(spans, child_total):
        own = (span.end - span.start) - covered
        out[span.name] = out.get(span.name, 0.0) + own
    return out


def interleaved(ops: Sequence[Any],
                sides: Dict[str, Callable[[int, Any], Any]],
                first: int = 0) -> Dict[str, List[float]]:
    """Run every operation through every side back to back and return
    each side's per-operation seconds.

    Overheads are ratios of two walls.  Measured in separate passes the
    two walls also differ by whatever changed in between — warm-up, heap
    growth, a GC pause, clock speed — which on this code is larger than
    the overheads themselves.  Here the sides of one operation run
    adjacent in time, and the side that goes first rotates with the
    operation index, so every side sees every position equally often and
    anything that drifts cancels.  Comparing a side with a copy of itself
    (a *null* side) must give about zero: that is the check on the
    method.

    Each side is called as ``side(i, op)`` and must keep its own state
    (its own caches), so that one side's work is never another's hit.
    ``first`` is the index of ``ops[0]``: a sample replayed in several
    calls passes it so that the calls continue one rotation.

    The cyclic collector runs once, before the pass, and is off during
    it.  A full collection here costs up to 0.4 s and fires after a fixed
    number of allocations, so left automatic it is charged to whichever
    side is running: measured, identical sides differed by 20% (static
    heap) to 60% (heap growing with the sides' caches).  A pass is a
    fixed sample of about a hundred operations, so what it leaves
    uncollected is bounded; reference counting still frees the rest at
    once.  (Collecting before every operation also works but took 130 s
    on ``served_unique``, whose live caches each collection must walk.)
    The sides' times therefore exclude collector pauses; the end-to-end
    runs, with GC untouched, include them.
    """
    names = list(sides)
    k = len(names)
    times: Dict[str, List[float]] = {name: [] for name in names}
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for i, op in enumerate(ops, start=first):
            for j in range(k):
                name = names[(i + j) % k]
                t0 = perf_counter()
                sides[name](i, op)
                times[name].append(perf_counter() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return times


def overhead_share(times: Dict[str, List[float]], side: str,
                   base: str) -> float:
    """``side``'s wall over ``base``'s, minus one."""
    return sum(times[side]) / sum(times[base]) - 1.0


def cpu_seconds() -> float:
    """User + system CPU this process has used so far."""
    return sum(os.times()[:2])


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _commit(root: str) -> str:
    """HEAD of ``root`` read from its own ``.git`` (the driver's
    checkout has none, and nothing above it may be read)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:]), encoding="utf-8") as f:
            return f.read().strip()
    except OSError:
        return "unknown"


def environment(root: str) -> Dict[str, object]:
    return {
        "commit": _commit(root),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": sys.platform,
    }
