"""Query-serving performance layer: cache hierarchy + batch execution.

The ROADMAP's production workload is *repeated* queries over a
mostly-static corpus — the classic cache-friendly shape: posting lists
are immutable between document loads (the TermJoin/PhraseFinder access
methods assume as much), compiled plans depend only on the query text
and the corpus snapshot, and identical queries return identical
answers.  This package layers three caches over that observation, all
invalidated by one mechanism — the store's monotonic
:attr:`~repro.xmldb.store.XMLStore.generation` counter, bumped on every
document add/remove:

- :class:`~repro.perf.postings.CachingIndex` — a size-bounded LRU of
  decoded posting lists in front of
  :class:`~repro.index.inverted.InvertedIndex` /
  :class:`~repro.index.compress.CompressedInvertedIndex` (it replaces
  the old single-term cache inside the compressed index), enabled via
  :meth:`XMLStore.enable_postings_cache`;
- :class:`~repro.perf.querycache.PlanCache` — compiled engine plans
  keyed on *normalized* query text (parse → unparse) + store
  generation, with a per-entry pool so concurrent callers never share a
  stateful operator tree;
- :class:`~repro.perf.querycache.ResultCache` — full query
  answers for the same key (only complete, un-truncated runs are ever
  stored).

:class:`~repro.perf.querycache.QueryCache` holds the plan and result
tiers; :func:`repro.resilience.run.run_query_guarded` (``cache=``) is
the one function that probes and fills them — "Execution pipeline" in
``docs/performance.md``.  ``repro.perf.batch`` runs many queries
through it over a shared read-only store on a thread pool
(:func:`~repro.perf.batch.execute_batch`, ``tix batch``), each under
its own :class:`~repro.resilience.QueryGuard`, returning results in
submission order regardless of completion order.

Everything reports ``cache.*`` / ``batch.*`` metrics through
:mod:`repro.obs` and honours the null-recorder zero-overhead contract.
See ``docs/performance.md``.
"""

from repro.perf.lru import LRUCache
from repro.perf.postings import CachingIndex
from repro.perf.querycache import (
    NormalizedQuery,
    PlanCache,
    QueryCache,
    ResultCache,
    normalize_query,
)
from repro.perf.batch import (
    BatchOutcome,
    BatchResult,
    execute_batch,
)

__all__ = [
    "LRUCache",
    "CachingIndex",
    "NormalizedQuery",
    "PlanCache",
    "QueryCache",
    "ResultCache",
    "normalize_query",
    "BatchOutcome",
    "BatchResult",
    "execute_batch",
]
