"""The answer cache, keyed on the parsed query + store generation.

Key construction is the whole invalidation story: every answer is keyed
``(parsed Query AST, store.generation)``.  The AST is made of frozen
dataclasses, so it is hashable and compares by value: spellings that
differ only in layout parse to equal ASTs and share one entry, while a
changed term or operator parses to a different key.  The generation
component makes entries from before a document add/remove *unreachable*
(stale answers are impossible by construction, no flush call required),
and the LRU bound ages the orphaned entries out under pressure.

Two tiers, cheapest first:

- a small normalization cache (raw source → parsed query) so warm
  lookups skip the parser entirely;
- :class:`ResultCache` — complete query answers.  Only
  complete, un-truncated executions are ever stored; a guarded run that
  tripped never pollutes the cache.

Plans are not cached: an answer miss compiles afresh, so each compiled
plan belongs to the one run that executed it.

:class:`QueryCache` only *holds* the tiers; the one function that
probes, fills and bypasses them is
:func:`repro.resilience.run.run_query_guarded` (pass ``cache=``; see
"Execution pipeline" in ``docs/performance.md``).  Caching is
transparent to scores, node identity, and result order —
``tests/differential/`` locks that equivalence down.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, NamedTuple, Optional

from repro.errors import QueryCompileError
from repro.perf.lru import LRUCache
from repro.query.ast import Query
from repro.query.parser import parse_query

if TYPE_CHECKING:
    from repro.xmldb.store import XMLStore

__all__ = ["NormalizedQuery", "ResultCache", "QueryCache"]

#: Total weight (result trees) the answer tier retains.
RESULT_CAPACITY = 4096
#: Raw query sources whose parse the normalization tier retains.
NORM_CAPACITY = 512


class NormalizedQuery(NamedTuple):
    """A parsed query; the query itself is the cache key."""

    query: Query


class ResultCache:
    """Full-answer cache for one store's queries.

    Values are the result lists themselves; hits return a fresh *list*
    (so callers may sort/slice freely) over shared trees — results are
    read-only by convention everywhere in the engine.  Weight is the
    result count, so the capacity bounds retained trees, not queries.
    """

    def __init__(self, store: "XMLStore") -> None:
        self.store = store
        self._lru = LRUCache(RESULT_CAPACITY, metric_prefix="cache.result")

    def _key(self, norm: NormalizedQuery) -> Any:
        return (norm.query, self.store.generation)

    def get(self, norm: NormalizedQuery) -> Optional[List]:
        found = self._lru.get(self._key(norm))
        return None if found is None else list(found)

    def put(self, norm: NormalizedQuery, results: List) -> None:
        self._lru.put(self._key(norm), list(results),
                      weight=max(1, len(results)))

    def __len__(self) -> int:
        return len(self._lru)

    @property
    def hits(self) -> int:
        return self._lru.hits

    @property
    def misses(self) -> int:
        return self._lru.misses


class _Plans:
    """The frozen harness's contract: ``benchmarks/stack`` checks plans
    out of ``cache.plans`` and reads its size and tallies.  Nothing is
    pooled, and no module of this package calls it."""

    def __init__(self, store: "XMLStore") -> None:
        self.store = store

    def acquire(self, norm: NormalizedQuery) -> Optional[Any]:
        from repro.query.compiler import compile_query
        try:
            return compile_query(self.store, norm.query)
        except QueryCompileError:
            return None

    def release(self, norm: NormalizedQuery, plan: Optional[Any]) -> None:
        pass

    def __len__(self) -> int:
        return 0


class QueryCache:
    """The normalization and answer tiers of one store.

    One instance serves one store; share it across queries (and across
    the batch executor's threads) to share the warm state.
    """

    def __init__(self, store: "XMLStore") -> None:
        self.store = store
        self.results = ResultCache(store)
        self.plans = _Plans(store)
        self._norm = LRUCache(NORM_CAPACITY, metric_prefix="cache.norm",
                              record=False)

    def normalize(self, source: str) -> NormalizedQuery:
        """The parsed query for ``source`` (cached on the raw source)."""
        return self._norm.get_or_create(
            source, lambda: (NormalizedQuery(parse_query(source)), 1)
        )

    def stats(self) -> dict:
        """Hit/miss tallies of the answer tier (reports and tests); the
        zero ``plan`` tallies are the frozen harness's contract."""
        return {"plan": {"hits": 0, "misses": 0},
                "result": self.results._lru.stats()}
