"""Unit tests for the concurrent batch executor: submission-order
determinism, per-query guard composition (deadline / row budget /
degrade-vs-strict), per-outcome error capture, obs metrics, and a
concurrency smoke test hammering ``execute_batch`` from 8 threads with
guards tripping mid-batch."""

import threading

import pytest

from repro import obs
from repro.perf import QueryCache, execute_batch
from repro.resilience import run_query_guarded
from repro.xmldb.store import XMLStore


def make_store(n_docs: int = 3) -> XMLStore:
    store = XMLStore()
    for d in range(n_docs):
        store.load(
            f"doc{d}.xml",
            f"<article><t>alpha beta doc{d}</t>"
            f"<sec>alpha gamma</sec><sec>beta alpha beta</sec></article>",
        )
    return store


def query_for(doc: int, first: str = "alpha", second: str = "beta") -> str:
    return (
        f'For $x in document("doc{doc}.xml")'
        "//article/descendant-or-self::* "
        f'Score $x using ScoreFooExact($x, {{"{first}"}}, {{"{second}"}}) '
        "Return $x Sortby(score)"
    )


class TestBatchBasics:
    def test_outcomes_in_submission_order(self):
        store = make_store()
        sources = [query_for(d) for d in (2, 0, 1, 2, 0)]
        result = execute_batch(store, sources, max_workers=4)
        assert result.n_queries == 5 and result.n_failed == 0
        for i, outcome in enumerate(result):
            assert outcome.index == i
            assert outcome.source == sources[i]
        # identical queries at different slots get identical answers
        assert ([t.score for t in result[0].results]
                == [t.score for t in result[3].results])
        assert ([t.score for t in result[1].results]
                == [t.score for t in result[4].results])

    def test_results_match_sequential_runs(self):
        # A budget-less, cache-less batch runs the same pipeline as
        # every other batch (it used to answer from the evaluator).
        store = make_store()
        sources = [query_for(d) for d in range(3)]
        batch = execute_batch(store, sources, max_workers=3)
        for src, outcome in zip(sources, batch):
            expected = run_query_guarded(store, src).results
            assert [(t.root.tag, t.score) for t in outcome.results] == \
                [(t.root.tag, t.score) for t in expected]

    def test_empty_batch(self):
        result = execute_batch(make_store(), [])
        assert result.n_queries == 0
        assert list(result) == []

    def test_bad_query_fails_alone(self):
        store = make_store()
        sources = [query_for(0), "THIS IS NOT A QUERY", query_for(1)]
        result = execute_batch(store, sources, max_workers=3)
        assert result.n_failed == 1
        assert result[0].ok and result[2].ok
        bad = result[1]
        assert not bad.ok and bad.results == []
        assert bad.error_type == "QuerySyntaxError"

    def test_shared_cache_serves_duplicates(self):
        store = make_store()
        cache = QueryCache(store)
        sources = [query_for(0)] * 6
        result = execute_batch(store, sources, cache=cache, max_workers=4)
        assert result.n_failed == 0
        assert cache.results.hits + cache.results.misses == 6
        assert cache.results.misses >= 1
        first = [t.score for t in result[0].results]
        for outcome in result:
            assert [t.score for t in outcome.results] == first


class TestGuardComposition:
    def test_row_budget_degrades_to_partial(self):
        store = make_store()
        result = execute_batch(store, [query_for(0)], max_rows=1,
                               degrade=True)
        outcome = result[0]
        assert outcome.ok and outcome.truncated
        assert outcome.n_results == 1
        assert "row" in outcome.reason

    def test_row_budget_strict_is_a_captured_error(self):
        store = make_store()
        result = execute_batch(store, [query_for(0)], max_rows=1,
                               degrade=False)
        outcome = result[0]
        assert not outcome.ok and outcome.results == []
        assert outcome.error_type == "ResourceExhaustedError"

    def test_zero_deadline_trips_every_query(self):
        store = make_store()
        sources = [query_for(d % 3) for d in range(6)]
        result = execute_batch(store, sources, timeout_ms=0.0,
                               degrade=True, max_workers=3)
        assert result.n_failed == 0
        assert result.n_truncated == 6  # each guard tripped, none raised

    def test_guards_are_per_query_not_per_batch(self):
        # A generous per-query deadline must not accumulate across the
        # batch: every query gets its own fresh clock and finishes.
        store = make_store()
        sources = [query_for(d % 3) for d in range(8)]
        result = execute_batch(store, sources, timeout_ms=60_000,
                               max_workers=2)
        assert result.n_failed == 0 and result.n_truncated == 0

    def test_metrics_emitted_when_collecting(self):
        store = make_store()
        sources = [query_for(0), "NOT A QUERY", query_for(1)]
        with obs.collecting() as col:
            execute_batch(store, sources, max_rows=1, degrade=True)
        snap = col.metrics.snapshot()
        assert snap["batch.queries"] == 3
        assert snap["batch.errors"] == 1
        assert snap["batch.truncated"] == 2
        assert snap["batch.query_ms"]["count"] == 3


class TestConcurrencySmoke:
    def test_hammer_from_8_threads_with_guards_tripping(self):
        """8 caller threads fire batches at one shared store + cache at
        once; each batch mixes fine queries, a syntax error, and
        guard-tripping budgets.  Nothing may leak across outcomes:
        every slot must hold exactly its own query's answer."""
        store = make_store()
        cache = QueryCache(store)
        store.index  # pre-build once; workers then only read
        store.structure
        reference = {
            d: [t.score for t in run_query_guarded(
                store, query_for(d), cache=cache).results]
            for d in range(3)
        }
        errors = []
        barrier = threading.Barrier(8)

        def caller(k: int):
            try:
                barrier.wait(timeout=30)
                for round_no in range(3):
                    sources = [query_for(d) for d in range(3)]
                    sources.append("BROKEN QUERY %d" % k)
                    result = execute_batch(
                        store, sources, cache=cache, max_workers=4,
                        # odd callers trip the row budget mid-batch
                        max_rows=1 if k % 2 else None,
                        degrade=True,
                    )
                    for d in range(3):
                        outcome = result[d]
                        assert outcome.ok, outcome.error
                        scores = [t.score for t in outcome.results]
                        if k % 2:
                            assert outcome.truncated
                            assert scores == reference[d][:1]
                        else:
                            assert not outcome.truncated
                            assert scores == reference[d]
                    assert not result[3].ok
                    assert result[3].error_type == "QuerySyntaxError"
            except Exception as exc:  # pragma: no cover - failure path
                errors.append((k, repr(exc)))

        threads = [threading.Thread(target=caller, args=(k,))
                   for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        assert errors == []

    def test_thread_local_guards_do_not_cross_talk(self):
        # Two batches with opposite budgets running concurrently must
        # not see each other's guards (GUARD is thread-local).
        store = make_store()
        store.index
        store.structure
        out = {}

        def strict():
            out["strict"] = execute_batch(
                store, [query_for(0)] * 4, max_rows=1, degrade=True,
                max_workers=2,
            )

        def unguarded():
            out["free"] = execute_batch(
                store, [query_for(0)] * 4, max_workers=2,
            )

        ts = [threading.Thread(target=strict),
              threading.Thread(target=unguarded)]
        for t in ts:
            t.start()
        for t in ts:
            t.join(timeout=60)
        assert out["strict"].n_truncated == 4
        assert out["free"].n_truncated == 0
        assert all(o.n_results == 1 for o in out["strict"])
        assert all(o.n_results > 1 for o in out["free"])


class TestWorkerDefaults:
    def test_worker_default_bounded_by_batch_size(self):
        # Just exercises the default-width path for tiny batches.
        store = make_store()
        result = execute_batch(store, [query_for(0)])
        assert result.n_queries == 1 and result[0].ok

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_explicit_widths_agree(self, workers):
        store = make_store()
        sources = [query_for(d % 3) for d in range(6)]
        result = execute_batch(store, sources, max_workers=workers)
        assert result.n_failed == 0
        base = execute_batch(store, sources, max_workers=1)
        for a, b in zip(result, base):
            assert ([t.score for t in a.results]
                    == [t.score for t in b.results])
