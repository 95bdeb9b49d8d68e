"""Unit tests for the plan estimator (``repro.plan``).

Covers the q-error math (1-safety, symmetry), the catalog estimate
primitives (term/phrase frequencies), exact leaf estimates on a seeded
corpus, composite sanity bounds, the generation-keyed statistics cache
on the store, EXPLAIN rendering of estimates, and the ``estimate.*``
metrics.
"""

import pytest

from repro import obs
from repro.engine.base import execute, explain, plan_stats
from repro.engine.operators import TermJoinScan
from repro.errors import UnknownTermError
from repro.plan.estimate import (
    PHRASE_ADJACENCY,
    estimate_plan,
    phrase_estimate,
    publish_qerrors,
    qerror,
    term_estimate,
)
from repro.plan.rules import region_fraction
from repro.query import parse_query
from repro.query.compiler import compile_query
from repro.xmldb.stats import StoreStatistics
from repro.xmldb.store import XMLStore


def make_store() -> XMLStore:
    """Seeded corpus with known term frequencies: 'alpha' x6,
    'beta' x4, 'gamma' x2, 'delta' x1 across two documents."""
    return XMLStore.from_sources({
        "a.xml": (
            "<article><t>alpha beta alpha</t>"
            "<sec>alpha gamma beta</sec>"
            "<sec>beta alpha delta</sec></article>"
        ),
        "b.xml": (
            "<article><t>alpha beta</t>"
            "<sec>alpha gamma</sec></article>"
        ),
    })


QUERY = '''
For $x in document("a.xml")//article/descendant-or-self::*
Score $x using ScoreFooExact($x, {"alpha"}, {"beta"})
Return $x
Sortby(score)
'''


class TestQError:
    def test_perfect_estimate(self):
        assert qerror(42.0, 42) == 1.0

    def test_symmetric(self):
        assert qerror(10.0, 100) == qerror(100.0, 10) == 10.0

    def test_one_safety_zero_actual(self):
        # actual = 0 must not blow up; both sides clamp to 1 row
        assert qerror(5.0, 0) == 5.0
        assert qerror(0.0, 5) == 5.0
        assert qerror(0.0, 0) == 1.0

    def test_sub_row_disagreement_is_perfect(self):
        assert qerror(0.2, 0.9) == 1.0


class TestCatalogPrimitives:
    def test_term_estimate_is_catalog_frequency(self):
        stats = make_store().stats
        assert term_estimate(stats, "alpha") == 6.0
        assert term_estimate(stats, "delta") == 1.0

    def test_term_estimate_case_folds(self):
        stats = make_store().stats
        assert term_estimate(stats, "ALPHA") == 6.0

    def test_unknown_term_estimates_zero(self):
        stats = make_store().stats
        assert term_estimate(stats, "nosuchterm") == 0.0

    def test_strict_runtime_does_not_change_catalog_answer(self):
        # The catalog answers 0.0 for unknown terms whether or not the
        # runtime index would raise in strict mode.
        store = make_store()
        assert term_estimate(store.stats, "nosuchterm") == 0.0
        with pytest.raises(UnknownTermError):
            store.index.postings("nosuchterm", strict=True)

    def test_phrase_estimate_rarest_term_bounds(self):
        stats = make_store().stats
        # min(freq) = 2 (gamma), one extra word => x PHRASE_ADJACENCY
        est = phrase_estimate(stats, ["alpha", "gamma"])
        assert est == pytest.approx(2.0 * PHRASE_ADJACENCY)

    def test_phrase_estimate_single_word_exact(self):
        stats = make_store().stats
        assert phrase_estimate(stats, ["beta"]) == 4.0

    def test_phrase_estimate_zero_frequency_word_kills_phrase(self):
        stats = make_store().stats
        assert phrase_estimate(stats, ["alpha", "nosuchterm"]) == 0.0

    def test_phrase_estimate_empty(self):
        assert phrase_estimate(make_store().stats, []) == 0.0

    def test_term_estimate_dispatches_phrases(self):
        stats = make_store().stats
        assert term_estimate(stats, "alpha gamma") == \
            phrase_estimate(stats, ["alpha", "gamma"])


class TestPlanAnnotation:
    def test_leaf_estimate_exactly_catalog_frequency(self):
        store = make_store()
        plan = compile_query(store, parse_query(QUERY))
        leaf = plan
        while leaf.children:
            leaf = leaf.children[0]
        assert leaf.name == "termjoin-scan"
        # No-threshold leaf restricted to a.xml: estimate is EXACTLY the
        # summed catalog frequencies of the query terms (alpha=6 +
        # beta=4) scaled by a.xml's share of the corpus words (9 of 13).
        stats = store.stats
        assert stats.n_words == 13
        assert leaf.doc_id == store.document("a.xml").doc_id
        assert leaf.est_rows == float(
            stats.frequency("alpha") + stats.frequency("beta")
        ) * (9 / 13)

    def test_every_operator_annotated_with_monotone_cost(self):
        store = make_store()
        plan = compile_query(store, parse_query(QUERY))

        def check(op):
            assert op.est_rows is not None and op.est_rows >= 0.0
            assert op.est_cost is not None and op.est_cost >= 0.0
            for child in op.children:
                assert op.est_cost >= child.est_cost  # cumulative
                check(child)

        check(plan)

    def test_composite_estimates_within_sanity_bound(self):
        store = make_store()
        plan = compile_query(store, parse_query(QUERY))
        leaf = plan
        while leaf.children:
            leaf = leaf.children[0]
        bound = leaf.est_rows * max(1, store.stats.max_depth)

        def check(op):
            assert 0.0 <= op.est_rows <= bound
            for child in op.children:
                check(child)

        check(plan)

    def test_empty_region_table_estimates_no_rows(self):
        """Regression: a structural filter passing nothing was estimated
        to keep every row (``region_fraction`` of no regions was 1.0)."""
        from repro.exampledata import example_store

        store = example_store()
        plan = compile_query(store, parse_query('''
            For $a in document("articles.xml")//nosuchtag/descendant-or-self::*
            Score $a using ScoreFooExact($a, {"search"})
            Return $a
        '''))
        execute(plan)
        filt = plan.children[0]
        assert filt.name == "structural-filter" and filt.regions == []
        assert filt.children[0].est_rows > 0
        assert filt.est_rows == 0.0
        assert plan_stats(filt)["q_error"] == 1.0
        assert region_fraction(store, []) == 0.0
        assert region_fraction(XMLStore(), []) == 1.0  # empty corpus

    def test_unknown_operator_degrades_to_passthrough(self):
        store = make_store()
        scan = TermJoinScan(store, ["alpha"], method=None)

        class Weird(type(scan).__mro__[1]):  # Operator subclass
            name = "never-seen-before"

        op = Weird([scan])
        estimate_plan(op, store)
        assert op.est_rows == scan.est_rows

    def test_hand_built_plan_unannotated_explain_unchanged(self):
        store = make_store()
        from repro.access.termjoin import TermJoin
        from repro.query.functions import default_registry

        factory = default_registry().score_factory("ScoreFooExact")
        scan = TermJoinScan(store, ["alpha"],
                            TermJoin(store, factory(["alpha"], [])))
        execute(scan)
        text = explain(scan)
        assert "est_rows" not in text  # no annotation, no column
        st = plan_stats(scan)
        assert st["est_rows"] is None and st["q_error"] is None


class TestExplainRendering:
    def test_explain_shows_estimates_before_execution(self):
        store = make_store()
        plan = compile_query(store, parse_query(QUERY))
        text = explain(plan)
        # the termjoin leaf: (6 + 4) * 9/13 words in a.xml = 6.92
        assert "(est_rows=7)" in text

    def test_analyze_shows_est_actual_and_qerror(self):
        store = make_store()
        plan = compile_query(store, parse_query(QUERY))
        execute(plan)
        text = explain(plan, analyze=True)
        assert "est_rows=" in text and "q_error=" in text
        assert "rows=" in text

    def test_plan_stats_carries_estimates(self):
        store = make_store()
        plan = compile_query(store, parse_query(QUERY))
        execute(plan)
        st = plan_stats(plan)
        assert st["est_rows"] is not None
        assert st["q_error"] == pytest.approx(
            qerror(st["est_rows"], st["rows"])
        )


class TestStatsCache:
    def test_stats_cached_per_generation(self):
        store = make_store()
        first = store.stats
        assert isinstance(first, StoreStatistics)
        assert store.stats is first  # same generation, same object

    def test_stats_rebuilt_after_document_change(self):
        store = make_store()
        first = store.stats
        store.load("c.xml", "<a><b>omega</b></a>")
        second = store.stats
        assert second is not first
        assert second.frequency("omega") == 1

    def test_rebuild_counter_metric(self):
        store = make_store()
        with obs.collecting() as col:
            store.stats
            store.stats  # cached: no second build
        reg = col.metrics.snapshot()
        assert reg["estimate.catalog_rebuilds"] == 1

    def test_level_histogram_populated(self):
        stats = make_store().stats
        assert stats.level_counts[0] == 2  # two roots
        assert sum(stats.level_counts.values()) == stats.n_elements
        assert stats.avg_depth > 0.0


class TestEstimateMetrics:
    def test_estimate_computed_per_compile(self):
        store = make_store()
        with obs.collecting() as col:
            compile_query(store, parse_query(QUERY))
            compile_query(store, parse_query(QUERY))
        snap = col.metrics.snapshot()
        assert snap["estimate.computed"] == 2

    def test_publish_qerrors_feeds_histogram(self):
        store = make_store()
        plan = compile_query(store, parse_query(QUERY))
        execute(plan)
        with obs.collecting() as col:
            out = publish_qerrors(plan)
        assert out and all(q >= 1.0 for q in out.values())
        snap = col.metrics.snapshot()
        assert snap["estimate.qerror"]["count"] == len(out)

    def test_guarded_run_publishes_qerrors(self):
        from repro.resilience import QueryGuard, run_query_guarded

        store = make_store()
        with obs.collecting() as col:
            run_query_guarded(store, QUERY,
                              QueryGuard(max_rows=100, degrade=True))
        snap = col.metrics.snapshot()
        assert snap["estimate.qerror"]["count"] > 0
