"""Plan and result caches keyed on normalized query text + generation.

Key construction is the whole invalidation story: every entry is keyed
``(normalized query text, store.generation)``.  The normalized text —
``unparse(parse(source))`` — makes differently-formatted spellings of
the same query share one entry; the generation component makes entries
from before a document add/remove *unreachable* (stale answers are
impossible by construction, no flush call required), and the LRU bound
ages the orphaned entries out under pressure.

Three tiers, cheapest first:

- a small normalization cache (raw source → parsed/normalized query)
  so warm lookups skip the parser entirely;
- :class:`ResultCache` — complete query answers.  Only
  complete, un-truncated executions are ever stored; a guarded run that
  tripped never pollutes the cache;
- :class:`PlanCache` — compiled engine plans.  Compiled plans are
  stateful operator trees (open/next/close), so each entry keeps a
  small *pool*: concurrent callers check plans out and back in, and two
  threads never drive the same operator tree at once.  Queries outside
  the compilable shape cache their ``QueryCompileError`` verdict so the
  compiler is consulted once, not per call.

:class:`QueryCache` only *holds* the tiers; the one function that
probes, fills and bypasses them is
:func:`repro.resilience.run.run_query_guarded` (pass ``cache=``; see
"Execution pipeline" in ``docs/performance.md``).  Caching is
transparent to scores, node identity, and result order —
``tests/differential/`` locks that equivalence down.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, List, NamedTuple, Optional

from repro import obs as _obs
from repro.errors import QueryCompileError
from repro.obs import events as _events
from repro.perf.lru import LRUCache
from repro.query.ast import Query
from repro.query.parser import parse_query
from repro.query.unparse import unparse

if TYPE_CHECKING:
    from repro.obs.metrics import MetricsRegistry
    from repro.xmldb.store import XMLStore

__all__ = [
    "NormalizedQuery", "normalize_query",
    "PlanCache", "ResultCache", "QueryCache",
]


class NormalizedQuery(NamedTuple):
    """A parsed query plus its canonical surface text (the cache key)."""

    text: str
    query: Query


def normalize_query(source: str) -> NormalizedQuery:
    """Parse ``source`` and render it back to canonical text.

    ``parse(unparse(parse(q))) == parse(q)`` is an asserted roundtrip
    property of the unparser, so the canonical text is a faithful key:
    two sources normalize equal iff they parse to the same AST.
    """
    query = parse_query(source)
    return NormalizedQuery(unparse(query), query)


# ----------------------------------------------------------------------
# Plan cache
# ----------------------------------------------------------------------

class _PlanEntry:
    """Pool of compiled plans for one (query, generation) key.

    ``compilable`` starts ``True`` and flips permanently to ``False``
    on the first :class:`QueryCompileError` — the negative verdict is
    as cacheable as a plan.
    """

    __slots__ = ("idle", "lock", "compilable")

    def __init__(self) -> None:
        self.idle: List[object] = []
        self.lock = threading.Lock()
        self.compilable = True


class PlanCache:
    """Compiled-plan cache with per-entry pooling (see module docstring).

    :param capacity: maximum number of (query, generation) entries;
    :param max_pool: idle plans kept per entry — bounding what a burst
        of concurrent identical queries can leave behind.
    """

    def __init__(self, store: "XMLStore", capacity: int = 128,
                 max_pool: int = 8) -> None:
        self.store = store
        self.max_pool = max_pool
        self._entries = LRUCache(capacity, metric_prefix="cache.plan",
                                 record=False)
        # Lifetime tallies (hit = compile avoided).  Guarded: the
        # batch executor's workers count concurrently, and ``+= 1``
        # is a read-modify-write that silently loses increments.
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def _entry(self, norm: NormalizedQuery) -> _PlanEntry:
        key = (norm.text, self.store.generation)
        return self._entries.get_or_create(key, lambda: (_PlanEntry(), 1))

    def acquire(self, norm: NormalizedQuery,
                registry: "Optional[MetricsRegistry]" = None,
                ) -> Optional[Any]:
        """A compiled plan for ``norm``, or ``None`` when the query is
        outside the compilable shape.  The plan is checked out: return
        it with :meth:`release` (even after an execution error — plans
        are left re-openable by the engine's error paths)."""
        from repro.query.compiler import compile_query

        entry = self._entry(norm)
        with entry.lock:
            if not entry.compilable:
                self._count(hit=True)
                return None
            if entry.idle:
                plan = entry.idle.pop()
                self._count(hit=True)
                return plan
        # Compile outside the lock: concurrent first-misses may compile
        # in parallel; every copy is equivalent and pools afterwards.
        try:
            plan = compile_query(self.store, norm.query, registry)
        except QueryCompileError:
            with entry.lock:
                entry.compilable = False
            self._count(hit=False)
            return None
        self._count(hit=False)
        return plan

    def release(self, norm: NormalizedQuery, plan: Optional[Any]) -> None:
        """Check a plan back in for reuse."""
        if plan is None:
            return
        entry = self._entry(norm)
        with entry.lock:
            if len(entry.idle) < self.max_pool:
                entry.idle.append(plan)

    def _count(self, hit: bool) -> None:
        with self._lock:
            if hit:
                self.hits += 1
            else:
                self.misses += 1
        rec = _obs.RECORDER
        if rec.enabled:
            rec.count("cache.plan.hits" if hit else "cache.plan.misses")
        ev = _events.current_event()
        if ev is not None:
            ev.plan_cache = "hit" if hit else "miss"

    def __len__(self) -> int:
        return len(self._entries)


# ----------------------------------------------------------------------
# Result cache
# ----------------------------------------------------------------------

class ResultCache:
    """Full-answer cache for one store's queries.

    Values are the result lists themselves; hits return a fresh *list*
    (so callers may sort/slice freely) over shared trees — results are
    read-only by convention everywhere in the engine.  Weight is the
    result count, so the capacity bounds retained trees, not queries.
    """

    def __init__(self, store: "XMLStore", capacity: int = 4096) -> None:
        self.store = store
        self._lru = LRUCache(capacity, metric_prefix="cache.result")

    def _key(self, text: str) -> Any:
        return (text, self.store.generation)

    def get(self, norm: NormalizedQuery) -> Optional[List]:
        found = self._lru.get(self._key(norm.text))
        return None if found is None else list(found)

    def put(self, norm: NormalizedQuery, results: List) -> None:
        self._lru.put(self._key(norm.text), list(results),
                      weight=max(1, len(results)))

    def __len__(self) -> int:
        return len(self._lru)

    @property
    def hits(self) -> int:
        return self._lru.hits

    @property
    def misses(self) -> int:
        return self._lru.misses


# ----------------------------------------------------------------------
# The tiers together
# ----------------------------------------------------------------------

class QueryCache:
    """The normalization, plan and result tiers of one store.

    One instance serves one store; share it across queries (and across
    the batch executor's threads) to share the warm state.  Pass
    ``results=False`` to keep only the plan tier (e.g. when answers are
    too large to retain).
    """

    def __init__(self, store: "XMLStore", *, plan_capacity: int = 128,
                 result_capacity: int = 4096, results: bool = True,
                 norm_capacity: int = 512) -> None:
        self.store = store
        self.plans = PlanCache(store, capacity=plan_capacity)
        self.results = (
            ResultCache(store, capacity=result_capacity) if results
            else None
        )
        self._norm = LRUCache(norm_capacity, metric_prefix="cache.norm",
                              record=False)

    def normalize(self, source: str) -> NormalizedQuery:
        """Cached :func:`normalize_query` (keyed on the raw source)."""
        return self._norm.get_or_create(
            source, lambda: (normalize_query(source), 1)
        )

    def stats(self) -> dict:
        """Hit/miss tallies for every tier (reports and tests)."""
        out = {
            "plan": {"hits": self.plans.hits, "misses": self.plans.misses},
        }
        if self.results is not None:
            out["result"] = self.results._lru.stats()
        return out
