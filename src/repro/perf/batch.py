"""Concurrent batch execution of queries over a shared read-only store.

INEX-style evaluation runs a large fixed topic set against one corpus;
a production front-end does the same continuously.  ``execute_batch``
serves that shape: many query strings, one store, a
``ThreadPoolExecutor``, and a per-query :class:`~repro.resilience.guard.
QueryGuard` composing the resilience layer's deadline/budget/degrade
semantics — one slow or over-budget query degrades (or fails) alone
without taking the batch down.

Correctness under concurrency rests on three properties established
elsewhere:

- guard installation is **thread-local** (:mod:`repro.resilience.guard`),
  so each worker's budgets tick against its own query;
- the store is treated as **read-only** — its lazy index/structure are
  built once *before* the pool spins up, so workers never race the
  builders;
- the optional shared :class:`~repro.perf.querycache.QueryCache` is
  thread-safe, and its plan tier hands each concurrent caller its own
  pooled operator tree.

Results come back as a :class:`BatchResult` whose outcomes sit in
**submission order** regardless of completion order — slot ``i`` always
answers ``sources[i]``.  Per-query failures are captured in the outcome
(``error`` / ``error_type``), never raised, so one malformed query
cannot lose the rest of the batch.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence

from repro import obs as _obs
from repro.obs import events as _events
from repro.resilience.guard import NullGuard, QueryGuard
from repro.resilience.run import run_query_guarded

if TYPE_CHECKING:
    from repro.obs.metrics import MetricsRegistry
    from repro.perf.querycache import QueryCache
    from repro.xmldb.store import XMLStore

__all__ = ["BatchOutcome", "BatchResult", "execute_batch"]


@dataclass
class BatchOutcome:
    """What happened to one query of the batch.

    Exactly one of three shapes: success (``ok``, full ``results``),
    degraded (``ok`` with ``truncated`` set and ``reason`` explaining
    the trip), or failure (``error`` / ``error_type`` set, empty
    ``results``).
    """

    index: int
    source: str
    results: List[object] = field(default_factory=list)
    truncated: bool = False
    reason: str = ""
    error: str = ""
    error_type: str = ""
    elapsed_ms: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.error

    @property
    def n_results(self) -> int:
        return len(self.results)


@dataclass
class BatchResult:
    """All outcomes of one :func:`execute_batch` call, in submission
    order (``outcomes[i]`` answers ``sources[i]``)."""

    outcomes: List[BatchOutcome]
    wall_ms: float = 0.0

    @property
    def n_queries(self) -> int:
        return len(self.outcomes)

    @property
    def n_failed(self) -> int:
        return sum(1 for o in self.outcomes if not o.ok)

    @property
    def n_truncated(self) -> int:
        return sum(1 for o in self.outcomes if o.truncated)

    def __iter__(self) -> Iterator[BatchOutcome]:
        return iter(self.outcomes)

    def __getitem__(self, i: int) -> BatchOutcome:
        return self.outcomes[i]


def _run_one(store: "XMLStore", outcome: BatchOutcome, *,
             timeout_ms: Optional[float], max_rows: Optional[int],
             degrade: bool, cache: "Optional[QueryCache]",
             registry: "Optional[MetricsRegistry]") -> BatchOutcome:
    """Execute one query into its pre-slotted outcome (worker body)."""
    t0 = perf_counter()
    guard = (
        QueryGuard(timeout_ms=timeout_ms, max_rows=max_rows,
                   degrade=degrade)
        if (timeout_ms is not None or max_rows is not None)
        else NullGuard()
    )
    with _events.observe_query(outcome.source, kind="batch") as ev:
        try:
            res = run_query_guarded(store, outcome.source, guard,
                                    cache=cache, registry=registry)
            outcome.results = res.results
            outcome.truncated = res.truncated
            outcome.reason = res.reason
        except Exception as exc:  # never lose the batch to one query
            outcome.error = str(exc)
            outcome.error_type = type(exc).__name__
            if ev is not None:
                # Captured failures never propagate, so stamp the
                # audit record here before emission.
                ev.note_error(outcome.error_type, outcome.error)
    outcome.elapsed_ms = (perf_counter() - t0) * 1000.0
    return outcome


def execute_batch(store: "XMLStore", sources: Sequence[str], *,
                  max_workers: Optional[int] = None,
                  timeout_ms: Optional[float] = None,
                  max_rows: Optional[int] = None,
                  degrade: bool = True,
                  cache: "Optional[QueryCache]" = None,
                  registry: "Optional[MetricsRegistry]" = None,
                  ) -> BatchResult:
    """Run every query in ``sources`` against ``store`` on a thread pool.

    :param max_workers: pool width (default: enough for the batch, at
        most ``min(8, cpu_count)``);
    :param timeout_ms: per-query wall-clock deadline — each query gets
        its *own* :class:`QueryGuard`, so the clock starts when the
        query starts, not when the batch does;
    :param max_rows: per-query output-row budget;
    :param degrade: ``True`` (default) turns trips into partial results
        flagged ``truncated``; ``False`` records them as errors on the
        outcome;
    :param cache: optional shared :class:`~repro.perf.querycache.
        QueryCache` — duplicate queries in the batch (and across
        batches) are answered from it;
    :param registry: custom score-function registry, passed through to
        every query (bypasses the cache tiers, see
        :func:`~repro.resilience.run.run_query_guarded`).

    Returns a :class:`BatchResult` in submission order.  Emits
    ``batch.queries`` / ``batch.errors`` / ``batch.truncated`` counters
    and a ``batch.query_ms`` distribution when an obs collector is
    installed.
    """
    sources = list(sources)
    if max_workers is None:
        max_workers = max(1, min(8, os.cpu_count() or 4, len(sources) or 1))
    outcomes = [
        BatchOutcome(index=i, source=src) for i, src in enumerate(sources)
    ]
    t0 = perf_counter()
    if outcomes:
        # Force the lazy index/structure builds on this thread so the
        # workers share finished structures instead of racing to build.
        store.index
        store.structure
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            futures = [
                pool.submit(_run_one, store, o, timeout_ms=timeout_ms,
                            max_rows=max_rows, degrade=degrade,
                            cache=cache, registry=registry)
                for o in outcomes
            ]
            for fut in futures:
                fut.result()  # outcomes are pre-slotted; this re-raises
                # only on harness bugs (worker exceptions are captured)
    result = BatchResult(outcomes, wall_ms=(perf_counter() - t0) * 1000.0)
    rec = _obs.RECORDER
    if rec.enabled:
        rec.count("batch.queries", result.n_queries)
        if result.n_failed:
            rec.count("batch.errors", result.n_failed)
        if result.n_truncated:
            rec.count("batch.truncated", result.n_truncated)
        for o in outcomes:
            rec.observe("batch.query_ms", o.elapsed_ms)
    return result
