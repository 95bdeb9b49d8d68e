"""Cache-hierarchy and batch-executor experiments (``repro.perf``).

Not a paper table — the paper ran every query cold.  These experiments
quantify what the ROADMAP's serving workload (the same queries repeated
against a mostly-static corpus) gains from the :mod:`repro.perf` layers,
on the Table-1 corpus and planted term frequencies:

- :func:`run_cache_experiment` — per planted frequency, the same
  compilable two-term query executed cold (parse + compile + execute
  each time), warm through the plan cache (execute only), and warm
  through the result cache (lookup only);
- :func:`run_batch_experiment` — an INEX-style topic batch with
  duplicates, sequential-and-cold vs. ``execute_batch`` with a shared
  :class:`~repro.perf.querycache.QueryCache`.

Timings follow the paper's trimmed-mean protocol.  Note the batch
speedup is *cache sharing*, not CPU parallelism: identical queries in
the batch are answered once (pure-Python execution serializes on the
GIL, so the pool buys overlap only on the cache layer and any I/O).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.bench.harness import BenchResult, timed_trimmed_mean
from repro.perf.batch import execute_batch
from repro.perf.querycache import QueryCache
from repro.resilience.run import run_query_guarded
from repro.workload.benchspec import TermRow
from repro.xmldb.store import XMLStore


def row_query(row: TermRow) -> str:
    """The Table-1 workload as a compilable query: score every element
    by the row's planted term pair (TermJoinScan pays the same postings
    merge the TermJoin access method does)."""
    primary, secondary = row.terms[0], row.terms[1]
    return (
        'For $x in document("article00000.xml")'
        "//article/descendant-or-self::* "
        f'Score $x using ScoreFooExact($x, {{"{primary}"}}, '
        f'{{"{secondary}"}}) '
        "Return $x Sortby(score)"
    )


def run_cache_experiment(store: XMLStore, rows: Sequence[TermRow],
                         runs: int = 5) -> BenchResult:
    """Cold vs. plan-cache-warm vs. result-cache-warm, per frequency."""
    result = BenchResult(
        "Cache hierarchy",
        ["freq", "cold", "warm_plan", "warm_result", "warm_speedup"],
    )
    result.notes.append(
        f"corpus: {store.n_elements} elements, {store.n_words} words"
    )
    result.notes.append(
        "cold = parse+compile+execute per call; warm_plan = pooled "
        "compiled plan, execute only; warm_result = answer served from "
        "the result cache; warm_speedup = cold / warm_result"
    )
    store.index, store.structure  # build outside the timings

    def timed(source: str, cache: Optional[QueryCache]) -> float:
        # untimed first run: fills the cache's tiers, if there is one
        run_query_guarded(store, source, cache=cache)
        return timed_trimmed_mean(
            lambda: run_query_guarded(store, source, cache=cache),
            runs=runs,
        )

    for row in rows:
        source = row_query(row)
        cold = timed(source, None)
        warm_plan = timed(source, QueryCache(store, results=False))
        warm_result = timed(source, QueryCache(store))
        result.add_row(
            row.label, cold, warm_plan, warm_result,
            cold / warm_result if warm_result else float("inf"),
        )
    return result


def run_batch_experiment(store: XMLStore, rows: Sequence[TermRow],
                         runs: int = 3, repeats: int = 4,
                         max_workers: int = 4) -> BenchResult:
    """Sequential-cold vs. concurrent-cached execution of a topic batch.

    The batch is every row's query repeated ``repeats`` times (shuffled
    deterministically by interleaving), the shape of an INEX topic run
    where popular queries recur.
    """
    sources = [row_query(row) for row in rows] * repeats
    result = BenchResult(
        "Batch executor",
        ["n_queries", "sequential_cold", "batch_cached", "speedup"],
    )
    result.notes.append(
        f"{len(rows)} distinct queries x {repeats} repeats, "
        f"{max_workers} workers; speedup is cache sharing (duplicate "
        "queries answered once), not CPU parallelism"
    )
    store.index, store.structure

    def sequential() -> None:
        for s in sources:
            run_query_guarded(store, s)

    def batched() -> None:
        res = execute_batch(store, sources, max_workers=max_workers,
                            cache=QueryCache(store))
        assert res.n_failed == 0

    seq = timed_trimmed_mean(sequential, runs=runs)
    bat = timed_trimmed_mean(batched, runs=runs)
    result.add_row(len(sources), seq, bat,
                   seq / bat if bat else float("inf"))
    return result
