"""Query-serving performance layer: answer cache + batch execution.

Repeated queries over a mostly-static corpus return identical
answers, so this package keeps one answer cache, invalidated by the
store's monotonic :attr:`~repro.xmldb.store.XMLStore.generation`
counter (bumped on every document add/remove).  (Posting lists need no
tier here: :class:`~repro.index.inverted.InvertedIndex` keeps every
list it has gathered until the store drops it.)

:class:`~repro.perf.querycache.QueryCache` holds two tiers — raw source
→ parsed query, and :class:`~repro.perf.querycache.ResultCache`'s full
answers keyed on ``(parsed query, generation)`` (only complete,
un-truncated runs are ever stored).  Plans are not cached: an answer
miss compiles afresh.  :func:`repro.resilience.run.run_query_guarded`
(``cache=``) is the one function that probes and fills the tiers —
"Execution pipeline" in ``docs/performance.md``.  ``repro.perf.batch``
runs many queries through it over a shared read-only store on a thread
pool (:func:`~repro.perf.batch.execute_batch`, ``tix batch``), each
under its own :class:`~repro.resilience.QueryGuard`, returning results
in submission order regardless of completion order.

Everything reports ``cache.*`` / ``batch.*`` metrics through
:mod:`repro.obs` and honours the null-recorder zero-overhead contract.
See ``docs/performance.md``.
"""

from repro.perf.lru import LRUCache
from repro.perf.querycache import NormalizedQuery, QueryCache, ResultCache
from repro.perf.batch import (
    BatchOutcome,
    BatchResult,
    execute_batch,
)

__all__ = [
    "LRUCache",
    "NormalizedQuery",
    "QueryCache",
    "ResultCache",
    "BatchOutcome",
    "BatchResult",
    "execute_batch",
]
