"""Size-bounded, thread-safe LRU cache with ``cache.*`` metrics.

One implementation serves both tiers of the query cache (answers and
parsed query sources).  Entries carry an explicit *weight* (trees
stored, …) so capacity bounds memory-like quantities rather than entry
counts alone; eviction is strict LRU on access order.

Metrics follow the :mod:`repro.obs` null-recorder contract: each
operation performs a single ``rec.enabled`` test and emits
``<prefix>.hits`` / ``.misses`` / ``.evictions`` counters plus
``<prefix>.entries`` / ``.weight`` gauges only while a collector is
installed.

The lock makes the cache safe under the batch executor's thread pool;
uncontended acquisition is tens of nanoseconds — invisible next to a
query parse.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, Tuple

from repro import obs as _obs

__all__ = ["LRUCache"]

#: Sentinel distinguishing "cached None" from "absent".
_MISSING = object()


class LRUCache:
    """An LRU map ``key -> (value, weight)`` bounded by total weight.

    :param capacity: maximum total weight held; inserting a value whose
        weight exceeds the capacity simply bypasses the cache (the value
        is returned to the caller but never stored, so one oversized
        answer cannot wipe the working set).
    :param metric_prefix: dotted prefix for the ``hits`` / ``misses`` /
        ``evictions`` counters, e.g. ``"cache.result"``.
    :param record: emit obs metrics.  The normalization tier passes
        ``False``: only the answer tier's traffic is published.
    """

    def __init__(self, capacity: int, metric_prefix: str = "cache",
                 record: bool = True) -> None:
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self.metric_prefix = metric_prefix
        self.record = record
        self._data: "OrderedDict[Hashable, Tuple[Any, int]]" = OrderedDict()
        self._weight = 0
        self._lock = threading.Lock()
        # Lifetime tallies, kept even with no collector installed so
        # tests and reports can read hit ratios without instrumenting.
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------

    def get(self, key: Hashable) -> Any:
        """Value for ``key`` or ``None``; a hit refreshes recency."""
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
                hit = False
            else:
                self._data.move_to_end(key)
                self.hits += 1
                hit = True
        if self.record:
            rec = _obs.RECORDER
            if rec.enabled:
                rec.count(f"{self.metric_prefix}.hits" if hit
                          else f"{self.metric_prefix}.misses")
        return None if value is _MISSING else value[0]

    def put(self, key: Hashable, value: Any, weight: int = 1) -> None:
        """Insert (or refresh) ``key``, evicting LRU entries as needed."""
        if weight > self.capacity:
            return  # oversized: serve uncached rather than thrash
        evicted = 0
        with self._lock:
            old = self._data.pop(key, _MISSING)
            if old is not _MISSING:
                self._weight -= old[1]
            self._data[key] = (value, weight)
            self._weight += weight
            while self._weight > self.capacity:
                _k, (_v, w) = self._data.popitem(last=False)
                self._weight -= w
                evicted += 1
            self.evictions += evicted
            entries, total = len(self._data), self._weight
        if self.record:
            rec = _obs.RECORDER
            if rec.enabled:
                if evicted:
                    rec.count(f"{self.metric_prefix}.evictions", evicted)
                rec.set_gauge(f"{self.metric_prefix}.entries", entries)
                rec.set_gauge(f"{self.metric_prefix}.weight", total)

    def get_or_create(self, key: Hashable,
                      factory: Callable[[], Tuple[Any, int]]) -> Any:
        """``get`` or build-and-``put``: ``factory`` returns
        ``(value, weight)`` and runs *outside* the lock (it may be a
        parse), so concurrent misses on the same key may each build
        once — last insert wins, all results identical by
        construction."""
        found = self.get(key)
        if found is not None:
            return found
        value, weight = factory()
        self.put(key, value, weight)
        return value

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    @property
    def weight(self) -> int:
        with self._lock:
            return self._weight

    def stats(self) -> Dict[str, int]:
        """Lifetime tallies as a plain dict (for reports/tests)."""
        with self._lock:
            return {
                "entries": len(self._data),
                "weight": self._weight,
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats()
        return (
            f"LRUCache({self.metric_prefix}: {s['entries']} entries, "
            f"{s['weight']}/{s['capacity']} weight, "
            f"{s['hits']}h/{s['misses']}m/{s['evictions']}e)"
        )
