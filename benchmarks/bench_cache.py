"""Cache hierarchy + batch executor on the Table-1 workload.

Not a paper table: measures what ``repro.perf`` buys a serving workload
— the same two-term scoring query repeated at each planted frequency —
cold, through the plan cache, and through the result cache, plus a
topic batch with duplicates sequential-cold vs. concurrent-cached.
Run with

    pytest benchmarks/bench_cache.py --benchmark-only \
        --benchmark-group-by=param:freq
"""

import pytest

from repro.bench.cachebench import row_query
from repro.perf import QueryCache, execute_batch
from repro.resilience import NullGuard, run_query_guarded

FREQ_IDS = [20, 200, 1000, 3000, 10000]


def _row(rows, freq):
    return next(r for r in rows["table1"] if r.label == freq)


@pytest.mark.parametrize("freq", FREQ_IDS)
def test_query_cold(benchmark, corpus123, freq):
    store, rows = corpus123
    source = row_query(_row(rows, freq))
    result = benchmark.pedantic(
        run_query_guarded, args=(store, source, NullGuard()),
        rounds=5, iterations=1,
    )
    assert result.results


@pytest.mark.parametrize("freq", FREQ_IDS)
def test_query_warm_plan_cache(benchmark, corpus123, freq):
    store, rows = corpus123
    source = row_query(_row(rows, freq))
    cache = QueryCache(store, results=False)
    run_query_guarded(store, source, cache=cache)  # warm, untimed
    result = benchmark.pedantic(
        run_query_guarded, args=(store, source),
        kwargs={"cache": cache}, rounds=5, iterations=1,
    )
    assert result.results
    assert cache.plans.hits >= 5


@pytest.mark.parametrize("freq", FREQ_IDS)
def test_query_warm_result_cache(benchmark, corpus123, freq):
    store, rows = corpus123
    source = row_query(_row(rows, freq))
    cache = QueryCache(store)
    run_query_guarded(store, source, cache=cache)
    result = benchmark.pedantic(
        run_query_guarded, args=(store, source),
        kwargs={"cache": cache}, rounds=5, iterations=1,
    )
    assert result.results
    assert cache.results.hits >= 5


def test_batch_sequential_cold(benchmark, corpus123):
    store, rows = corpus123
    sources = [row_query(_row(rows, f)) for f in FREQ_IDS] * 4

    def sequential():
        for s in sources:
            run_query_guarded(store, s, NullGuard())

    benchmark.pedantic(sequential, rounds=3, iterations=1)


def test_batch_concurrent_cached(benchmark, corpus123):
    store, rows = corpus123
    sources = [row_query(_row(rows, f)) for f in FREQ_IDS] * 4

    def batched():
        res = execute_batch(store, sources, max_workers=4,
                            cache=QueryCache(store))
        assert res.n_failed == 0
        return res

    benchmark.pedantic(batched, rounds=3, iterations=1)
