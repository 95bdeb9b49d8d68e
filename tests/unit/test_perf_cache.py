"""Unit tests for the repro.perf cache hierarchy: LRU semantics, the
postings-cache accounting contract, plan/result tiers, and — the part
that keeps the whole design honest — generation-based invalidation:
after a document add or remove, a stale answer must be unreachable."""

import pytest

from repro import obs
from repro.errors import ResourceExhaustedError, UnknownTermError
from repro.perf import (
    CachingIndex,
    LRUCache,
    QueryCache,
    normalize_query,
)
from repro.perf.lru import LRUCache as _LRU
from repro.query.parser import parse_query
from repro.resilience import QueryGuard, run_query_guarded
from repro.xmldb.parser import parse_document
from repro.xmldb.store import XMLStore


def make_store(extra_terms=""):
    store = XMLStore()
    store.load("a.xml", f"<article><t>alpha beta</t>"
                        f"<sec>alpha gamma {extra_terms}</sec></article>")
    return store


def run(cache, source, **kwargs):
    """One pipeline run through ``cache``; returns the result list."""
    return run_query_guarded(cache.store, source, cache=cache,
                             **kwargs).results


COMPILABLE = (
    'For $x in document("a.xml")//article/descendant-or-self::* '
    'Score $x using ScoreFooExact($x, {"alpha"}, {"beta"}) '
    "Return $x Sortby(score)"
)
EVALUATOR_ONLY = (
    'For $x in document("a.xml")//article/descendant-or-self::* '
    'Score $x using ScoreFoo($x, {"alpha"}, {"beta"}) '
    "Return $x Sortby(score)"
)


class TestLRUCache:
    def test_hit_miss_and_recency(self):
        c = LRUCache(capacity=3)
        c.put("a", 1)
        c.put("b", 2)
        c.put("c", 3)
        assert c.get("a") == 1       # refreshes a
        c.put("d", 4)                # evicts b (LRU)
        assert c.get("b") is None
        assert c.get("a") == 1 and c.get("d") == 4
        assert c.evictions == 1

    def test_weight_bound_not_entry_bound(self):
        c = LRUCache(capacity=10)
        c.put("big", "x", weight=7)
        c.put("small", "y", weight=3)
        assert len(c) == 2 and c.weight == 10
        c.put("more", "z", weight=1)  # evicts "big"
        assert "big" not in c and c.weight == 4

    def test_oversized_value_bypasses_cache(self):
        c = LRUCache(capacity=5)
        c.put("keep", 1, weight=2)
        c.put("huge", 2, weight=6)
        assert "huge" not in c
        assert c.get("keep") == 1  # working set untouched

    def test_get_or_create_runs_factory_once_per_miss(self):
        c = LRUCache(capacity=10)
        calls = []
        factory = lambda: (calls.append(1) or "v", 1)  # noqa: E731
        assert c.get_or_create("k", factory) == "v"
        assert c.get_or_create("k", factory) == "v"
        assert len(calls) == 1

    def test_metrics_emitted_only_when_collecting(self):
        c = LRUCache(capacity=4, metric_prefix="cache.test")
        c.put("a", 1)
        c.get("a")
        with obs.collecting() as col:
            c.get("a")
            c.get("nope")
        snap = col.metrics.snapshot()
        assert snap["cache.test.hits"] == 1
        assert snap["cache.test.misses"] == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            _LRU(0)


class TestCachingIndex:
    def test_shares_cached_posting_lists(self):
        store = make_store()
        store.enable_postings_cache(capacity=1000)
        idx = store.index
        assert isinstance(idx, CachingIndex)
        assert idx.postings("alpha") is idx.postings("alpha")
        assert idx.cache.hits == 1 and idx.cache.misses == 1

    def test_agrees_with_unwrapped_index(self):
        plain = make_store()
        cached = make_store()
        cached.enable_postings_cache(capacity=1000)
        for term in ("alpha", "beta", "gamma", "missing"):
            assert (cached.index.postings(term).postings
                    == plain.index.postings(term).postings)
        assert cached.index.frequency("alpha") == \
            plain.index.frequency("alpha")
        assert cached.index.idf("beta") == plain.index.idf("beta")

    def test_strict_unknown_term_still_raises_after_misses(self):
        store = make_store()
        store.enable_postings_cache(capacity=1000)
        assert len(store.index.postings("missing").postings) == 0
        with pytest.raises(UnknownTermError):
            store.index.postings("missing", strict=True)

    def test_accounting_contract(self):
        """The fixed contract: postings_returned/bytes_read/decodes are
        cold-path only; a warm hit adds one posting_fetch + one
        cache_hit and nothing else (the old single-term cache in the
        compressed index double-counted postings_returned on hits)."""
        store = make_store()
        store.enable_index_compression()
        store.enable_postings_cache(capacity=1000)
        store.index  # build outside the collector
        with obs.collecting() as col:
            store.index.postings("alpha")   # cold
            store.index.postings("alpha")   # warm
            store.index.postings("alpha")   # warm
        snap = col.metrics.snapshot()
        assert snap["index.posting_fetches"] == 3
        assert snap["index.cache_hits"] == 2
        assert snap["index.posting_decodes"] == 1
        assert snap["index.postings_returned"] == \
            len(store.index.postings("alpha"))  # counted once, not 3x
        assert snap["cache.postings.hits"] == 2
        assert snap["cache.postings.misses"] == 1

    def test_compressed_index_rereads_without_inner_cache(self):
        """The compressed index itself decodes every call now — its old
        internal single-term cache is gone."""
        store = make_store()
        store.enable_index_compression()
        store.index
        with obs.collecting() as col:
            store.index.postings("alpha")
            store.index.postings("alpha")
        snap = col.metrics.snapshot()
        assert snap["index.posting_decodes"] == 2
        assert "index.cache_hits" not in snap


class TestNormalization:
    def test_spellings_normalize_equal(self):
        messy = COMPILABLE.replace(" Score", "\n\n   Score")
        assert normalize_query(messy).text == \
            normalize_query(COMPILABLE).text

    def test_different_queries_normalize_different(self):
        other = COMPILABLE.replace('"alpha"', '"gamma"')
        assert normalize_query(other).text != \
            normalize_query(COMPILABLE).text


class TestQueryCache:
    def test_result_tier_hits(self):
        store = make_store()
        cache = QueryCache(store)
        a = run(cache, COMPILABLE)
        b = run(cache, COMPILABLE)
        assert [t.score for t in a] == [t.score for t in b]
        assert cache.results.hits == 1
        assert b is not a  # callers get their own list

    def test_plan_tier_pools_and_reuses(self):
        store = make_store()
        cache = QueryCache(store, results=False)
        run(cache, COMPILABLE)
        run(cache, COMPILABLE)
        run(cache, COMPILABLE)
        assert cache.plans.misses == 1  # one compile
        assert cache.plans.hits == 2

    def test_plan_tally_survives_concurrent_counting(self):
        # Regression: hits/misses are bumped by batch-executor worker
        # threads; the unlocked ``+= 1`` lost increments under load.
        import threading

        store = make_store()
        cache = QueryCache(store, results=False)
        run(cache, COMPILABLE)  # prime: one compile
        per_thread, n_threads = 25, 4
        barrier = threading.Barrier(n_threads)

        def worker():
            barrier.wait()
            for _ in range(per_thread):
                run(cache, COMPILABLE)

        threads = [threading.Thread(target=worker)
                   for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
        total = cache.plans.hits + cache.plans.misses
        assert total == per_thread * n_threads + 1

    def test_non_compilable_verdict_is_cached(self):
        store = make_store()
        cache = QueryCache(store, results=False)
        run(cache, EVALUATOR_ONLY)
        run(cache, EVALUATOR_ONLY)
        assert cache.plans.misses == 1  # the compiler ran once
        assert cache.plans.hits == 1    # the "no plan" verdict hit

    def test_custom_registry_bypasses_caching(self):
        from repro.query.functions import default_registry

        store = make_store()
        cache = QueryCache(store)
        reg = default_registry()
        a = run(cache, COMPILABLE, registry=reg)
        run(cache, COMPILABLE, registry=reg)
        assert a
        assert cache.results.hits == 0 and cache.plans.misses == 0

    def test_guarded_hit_enforces_row_budget(self):
        store = make_store()
        cache = QueryCache(store)
        full = run(cache, COMPILABLE)
        assert len(full) > 1
        res = run_query_guarded(
            store, COMPILABLE, QueryGuard(max_rows=1, degrade=True),
            cache=cache,
        )
        assert res.truncated and len(res.results) == 1
        with pytest.raises(ResourceExhaustedError):
            run_query_guarded(
                store, COMPILABLE, QueryGuard(max_rows=1, degrade=False),
                cache=cache,
            )

    def test_truncated_run_is_never_cached(self):
        store = make_store()
        cache = QueryCache(store)
        res = run_query_guarded(
            store, COMPILABLE, QueryGuard(max_rows=1, degrade=True),
            cache=cache,
        )
        assert res.truncated
        assert len(cache.results._lru) == 0
        full = run(cache, COMPILABLE)
        assert len(full) > 1


class TestGenerationInvalidation:
    """Warm every cache tier, change the corpus, prove fresh answers."""

    def add_doc(self, store, text="alpha alpha alpha"):
        doc = parse_document(f"<article><t>{text}</t></article>",
                             name=f"new{store.generation}.xml",
                             doc_id=store.n_documents)
        store.add_document(doc)

    def test_generation_bumps_on_add_and_remove(self):
        store = make_store()
        g0 = store.generation
        self.add_doc(store)
        assert store.generation == g0 + 1
        store.remove_document("new" + str(g0) + ".xml")
        assert store.generation == g0 + 2

    def test_remove_document_renumbers(self):
        store = XMLStore()
        store.load("a.xml", "<r><x>alpha</x></r>")
        store.load("b.xml", "<r><x>beta</x></r>")
        store.load("c.xml", "<r><x>gamma</x></r>")
        store.remove_document("b.xml")
        assert [d.name for d in store.documents()] == ["a.xml", "c.xml"]
        assert [d.doc_id for d in store.documents()] == [0, 1]
        assert store.document("c.xml").doc_id == 1
        assert list(store.index.postings("gamma").postings.doc) == [1]

    def test_postings_cache_discarded_with_index(self):
        store = make_store()
        store.enable_postings_cache(capacity=1000)
        before = store.index.postings("alpha")
        self.add_doc(store, "alpha alpha")
        after = store.index.postings("alpha")
        assert len(after) == len(before) + 2  # fresh index, fresh cache

    def replace_queried_doc(self, store):
        """The stale-answer scenario: the document the warm queries were
        answered from is replaced by a richer version under the same
        name (remove + reload)."""
        store.remove_document("a.xml")
        store.load("a.xml", "<article><t>alpha beta</t>"
                            "<sec>alpha gamma</sec>"
                            "<sec>alpha beta alpha</sec></article>")

    def test_result_cache_cannot_serve_stale(self):
        store = make_store()
        cache = QueryCache(store)
        warm = run(cache, COMPILABLE)
        assert cache.results.hits == 0
        run(cache, COMPILABLE)
        assert cache.results.hits == 1  # the warm path really is warm
        self.replace_queried_doc(store)
        fresh = run(cache, COMPILABLE)
        assert len(fresh) > len(warm)

    def test_plan_cache_cannot_serve_stale(self):
        store = make_store()
        cache = QueryCache(store, results=False)
        warm = run(cache, COMPILABLE)
        self.replace_queried_doc(store)
        fresh = run(cache, COMPILABLE)
        assert len(fresh) > len(warm)
        assert cache.plans.misses == 2  # recompiled for the new key

    def test_evaluator_path_cannot_serve_stale(self):
        store = make_store()
        cache = QueryCache(store)
        warm = run(cache, EVALUATOR_ONLY)
        self.replace_queried_doc(store)
        fresh = run(cache, EVALUATOR_ONLY)
        assert len(fresh) > len(warm)

    def test_reference_results_match_after_invalidation(self):
        store = make_store()
        cache = QueryCache(store)
        run(cache, COMPILABLE)
        self.replace_queried_doc(store)
        cached = run(cache, COMPILABLE)
        reference = run_query_guarded(store, COMPILABLE).results
        assert [t.score for t in cached] == [t.score for t in reference]
