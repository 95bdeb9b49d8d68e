"""Metrics primitives: counters, gauges, and streaming histograms.

The registry is the engine's single sink for cost accounting.  Metric
names are hierarchical dotted paths (``termjoin.postings_scanned``,
``index.bytes_read``, ``operator.sort.time_ms``) so a snapshot groups
naturally by subsystem.  Everything here is dependency-free and cheap:

- :class:`Counter` — a monotonically increasing integer/float;
- :class:`Gauge` — a last-write-wins value;
- :class:`Histogram` — a *streaming* histogram over geometric buckets.
  It never stores samples: each observation lands in the bucket
  ``floor(log_b(value))`` for ``b = 2**(1/4)``, so any quantile is
  answered from cumulative bucket counts with bounded relative error
  (≤ ~9%, half the bucket width) while memory stays O(#buckets).

All three primitives (and the registry's get-or-create path) are
**thread-safe**: the batch executor drives one collector from many
worker threads, and ``value += n`` / dict upserts are not atomic under
the GIL's bytecode-level preemption.  Each metric carries its own lock
so contention stays per-name; the null-recorder zero-overhead contract
is untouched (no lock is ever taken unless a collector is installed).

See ``docs/observability.md`` for the metric-name catalog.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Optional, Tuple, Type, TypeVar, Union

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

#: Geometric bucket growth factor: 4 buckets per octave.
_BUCKET_BASE = 2.0 ** 0.25
_LOG_BASE = math.log(_BUCKET_BASE)

#: The concrete metric type requested from the registry.
_M = TypeVar("_M", "Counter", "Gauge", "Histogram")


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Union[int, float] = 0
        self._lock = threading.Lock()

    def inc(self, n: Union[int, float] = 1) -> None:
        """Add ``n`` (must be non-negative)."""
        if n < 0:
            raise ValueError(f"counter {self.name}: negative increment {n}")
        with self._lock:
            self.value += n

    def snapshot(self) -> Union[int, float]:
        return self.value


class Gauge:
    """A last-write-wins value (e.g. ``index.n_terms``)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Union[int, float] = 0
        self._lock = threading.Lock()

    def set(self, value: Union[int, float]) -> None:
        with self._lock:
            self.value = value

    def snapshot(self) -> Union[int, float]:
        return self.value


class Histogram:
    """Streaming histogram with p50/p95/p99 quantile estimates.

    Observations are bucketed geometrically (growth factor
    ``2**(1/4)``); count, sum, min and max are tracked exactly, so the
    mean is exact and quantiles are exact at the distribution's edges
    (clamped to ``[min, max]``) and within half a bucket elsewhere.
    Non-positive observations land in a dedicated zero bucket.

    An observation may carry an **exemplar** — an opaque label (in
    practice a trace id) tying the recorded value back to the request
    that produced it.  The histogram keeps a small ring of the most
    recent exemplars plus the largest-valued one ever seen, so a
    latency spike in ``server.request_ms`` is joinable to the retained
    trace that explains it.  Exemplars surface in :meth:`snapshot`
    (and hence in the ``stats`` wire op's ``metrics``).
    """

    #: Most-recent exemplars kept per histogram.
    EXEMPLAR_SLOTS = 4

    __slots__ = ("name", "count", "total", "min", "max", "_zero",
                 "_buckets", "_exemplars", "_max_exemplar", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._zero = 0                      # observations <= 0
        self._buckets: Dict[int, int] = {}  # bucket index -> count
        self._exemplars: List[Tuple[float, str]] = []  # recent ring
        self._max_exemplar: Optional[Tuple[float, str]] = None
        self._lock = threading.Lock()

    def observe(self, value: Union[int, float],
                exemplar: Optional[str] = None) -> None:
        """Record one observation, optionally labelled with an
        ``exemplar`` (a trace id)."""
        v = float(value)
        with self._lock:
            self.count += 1
            self.total += v
            if self.min is None or v < self.min:
                self.min = v
            if self.max is None or v > self.max:
                self.max = v
            if exemplar:
                self._exemplars.append((v, exemplar))
                if len(self._exemplars) > self.EXEMPLAR_SLOTS:
                    del self._exemplars[0]
                if self._max_exemplar is None or v >= self._max_exemplar[0]:
                    self._max_exemplar = (v, exemplar)
            if v <= 0.0:
                self._zero += 1
                return
            idx = math.floor(math.log(v) / _LOG_BASE)
            self._buckets[idx] = self._buckets.get(idx, 0) + 1

    def exemplars(self) -> List[Dict[str, object]]:
        """Recent (and max-value) exemplars, oldest first:
        ``[{"value": …, "trace_id": …, ("max": true)}, …]``."""
        with self._lock:
            recent = list(self._exemplars)
            max_ex = self._max_exemplar
        out: List[Dict[str, object]] = [
            {"value": v, "trace_id": t} for v, t in recent
        ]
        if max_ex is not None and max_ex not in recent:
            out.append(
                {"value": max_ex[0], "trace_id": max_ex[1], "max": True}
            )
        return out

    def bucket_counts(self) -> Tuple[int, Dict[int, int]]:
        """A consistent ``(zero_count, {bucket index: count})`` copy.

        Bucket ``i`` covers ``(base**i, base**(i+1)]`` for
        ``base = 2**(1/4)``; the zero bucket holds observations
        ``<= 0``.
        """
        with self._lock:
            return self._zero, dict(self._buckets)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (``0 <= q <= 1``); 0.0 when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        with self._lock:
            if self.count == 0:
                return 0.0
            rank = q * self.count
            cum = self._zero
            if cum >= rank:
                return min(0.0, self.min or 0.0)
            for idx in sorted(self._buckets):
                cum += self._buckets[idx]
                if cum >= rank:
                    # Midpoint (geometric mean) of the bucket's bounds.
                    lo = _BUCKET_BASE ** idx
                    hi = lo * _BUCKET_BASE
                    est = math.sqrt(lo * hi)
                    assert self.min is not None and self.max is not None
                    return max(self.min, min(self.max, est))
            return self.max if self.max is not None else 0.0

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    def snapshot(self) -> Dict[str, object]:
        d: Dict[str, object] = {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
        }
        # Key present only when an exemplar was ever recorded, so
        # exemplar-free snapshots keep their historical exact shape.
        ex = self.exemplars()
        if ex:
            d["exemplars"] = ex
        return d


class MetricsRegistry:
    """Get-or-create registry of named metrics.

    One flat namespace: registering the same name with two different
    metric kinds is an error (it would silently split the accounting).
    Creation and iteration are lock-protected so concurrent workers can
    mint and read metrics safely; the per-metric fast paths
    (``inc``/``observe``/``set``) take only the metric's own lock.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Union[Counter, Gauge, Histogram]] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, cls: Type[_M]) -> _M:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}, not {cls.__name__}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(name, Histogram)

    # -- one-shot conveniences (what instrumented code calls) -----------

    def count(self, name: str, n: Union[int, float] = 1) -> None:
        self.counter(name).inc(n)

    def observe(self, name: str, value: Union[int, float],
                exemplar: Optional[str] = None) -> None:
        self.histogram(name).observe(value, exemplar)

    def set_gauge(self, name: str, value: Union[int, float]) -> None:
        self.gauge(name).set(value)

    # -- reporting -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def get(self, name: str) -> Optional[Union[Counter, Gauge, Histogram]]:
        """The metric object registered under ``name`` (or ``None``)."""
        with self._lock:
            return self._metrics.get(name)

    def items(self) -> List[Tuple[str, Union[Counter, Gauge, Histogram]]]:
        """A consistent ``(name, metric)`` listing, sorted by name —
        what :meth:`snapshot` and :meth:`render` iterate (the plain
        dict could grow under them mid-iteration)."""
        with self._lock:
            return sorted(self._metrics.items())

    def snapshot(self) -> Dict[str, object]:
        """``{name: value}`` for counters/gauges, ``{name: {stats}}`` for
        histograms, sorted by name."""
        return {n: m.snapshot() for n, m in self.items()}

    def render(self, prefix: str = "") -> str:
        """Plain-text dump, one metric per line, sorted by name."""
        lines: List[str] = []
        for name, metric in self.items():
            if prefix and not name.startswith(prefix):
                continue
            if isinstance(metric, Histogram):
                s = metric.snapshot()
                lines.append(
                    f"{name}: count={s['count']:g} mean={s['mean']:.4g} "
                    f"p50={s['p50']:.4g} p95={s['p95']:.4g} "
                    f"p99={s['p99']:.4g} max={s['max']:.4g}"
                )
            else:
                lines.append(f"{name}: {metric.value:g}")
        return "\n".join(lines)
