"""Unit tests for the plan estimator (``repro.plan``).

Covers the q-error math (1-safety, symmetry), the catalog estimate
primitives (term/phrase frequencies, containment selectivity from the
level histogram, structural-join clamping), exact leaf estimates on a
seeded corpus, composite sanity bounds, the generation-keyed statistics
cache on the store, EXPLAIN rendering of estimates, the ``estimate.*``
metrics, and the audit-log misestimation feedback report (including
mixed schema-version logs).
"""

import io
import json

import pytest

from repro import obs
from repro.engine.base import execute, explain, plan_stats
from repro.engine.operators import PhraseFinderScan, TermJoinScan
from repro.errors import UnknownTermError
from repro.plan.estimate import (
    PHRASE_ADJACENCY,
    containment_selectivity,
    estimate_plan,
    phrase_estimate,
    publish_qerrors,
    qerror,
    structural_join_estimate,
    term_estimate,
)
from repro.obs.events import SCHEMA_VERSION
from repro.plan.feedback import SUPPORTED_EVENT_VERSIONS, feedback_report
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

    def test_containment_selectivity_matches_histogram(self):
        stats = make_store().stats
        n = stats.n_elements
        pairs = sum(lv * c for lv, c in stats.level_counts.items())
        assert containment_selectivity(stats) == \
            pytest.approx(pairs / (n * n))
        assert 0.0 < containment_selectivity(stats) <= 1.0

    def test_structural_join_clamped_by_depth_bound(self):
        stats = make_store().stats
        # Absurd inputs: the output may never exceed every descendant
        # paired with its full ancestor chain.
        est = structural_join_estimate(stats, 1e9, 10.0)
        assert est <= 10.0 * stats.max_depth

    def test_structural_join_zero_inputs(self):
        stats = make_store().stats
        assert structural_join_estimate(stats, 0.0, 0.0) == 0.0


class TestPlanAnnotation:
    def test_leaf_estimate_exactly_catalog_frequency(self):
        store = make_store()
        plan = compile_query(store, parse_query(QUERY))
        leaf = plan
        while leaf.children:
            leaf = leaf.children[0]
        assert leaf.name == "termjoin-scan"
        # No-threshold leaf: estimate is EXACTLY the summed catalog
        # frequencies of the query terms (alpha=6 + beta=4).
        assert leaf.est_rows == float(
            store.stats.frequency("alpha") + store.stats.frequency("beta")
        )

    def test_phrasefinder_leaf_estimate_exact(self):
        store = make_store()
        scan = PhraseFinderScan(store, ["alpha", "gamma"])
        estimate_plan(scan, store)
        assert scan.est_rows == pytest.approx(
            phrase_estimate(store.stats, ["alpha", "gamma"])
        )

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
        assert "(est_rows=10)" in text  # the termjoin leaf: 6 + 4

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


def _record(sha: str, ops):
    return {
        "v": SCHEMA_VERSION, "trace_id": "", "ts": 0.0, "kind": "query", "query_sha256": sha,
        "outcome": "ok", "wall_ms": 1.0, "rows": 1, "truncated": False,
        "reason": "", "error_type": "", "cache": "", "plan_cache": "",
        "guard": {"active": False, "degraded": False, "trip": ""},
        "ops": ops, "slow": False,
    }


def _old_record(sha: str, version: int):
    r = _record(sha, [{"operator": "sort", "rows": 3, "est_rows": 3.0,
                       "q_error": 1.0, "time_ms": 0.1}])
    r["v"] = version
    del r["trace_id"]
    return r


class TestFeedbackReport:
    def test_ranks_by_median_qerror(self):
        records = [
            _record("aa", [
                {"operator": "sort", "rows": 10, "est_rows": 10.0,
                 "q_error": 1.0, "time_ms": 0.1},
                {"operator": "termjoin-scan(x)", "rows": 1,
                 "est_rows": 50.0, "q_error": 50.0, "time_ms": 0.2},
            ]),
            _record("bb", [
                {"operator": "termjoin-scan(x)", "rows": 2,
                 "est_rows": 40.0, "q_error": 20.0, "time_ms": 0.2},
            ]),
        ]
        report = feedback_report(records)
        assert report.n_records == 2
        assert report.operators[0].key == "termjoin-scan(x)"
        assert report.operators[0].count == 2
        assert report.operators[0].median_qerror == pytest.approx(35.0)
        assert report.operators[0].max_qerror == 50.0
        assert report.operators[-1].key == "sort"
        # shapes keyed by query hash, ranked the same way
        assert report.shapes[0].key == "aa"

    def test_qerror_derived_when_absent(self):
        records = [_record("aa", [
            {"operator": "sort", "rows": 5, "est_rows": 10.0,
             "time_ms": 0.1},  # no q_error field
        ])]
        report = feedback_report(records)
        assert report.operators[0].median_qerror == pytest.approx(2.0)

    def test_other_versions_are_skipped_never_crash(self):
        assert SUPPORTED_EVENT_VERSIONS == (SCHEMA_VERSION,)
        records = [
            _old_record("aa", 1),
            _old_record("aa", 2),
            _record("bb", [
                {"operator": "termjoin-scan(x)", "rows": 4,
                 "est_rows": 8.0, "q_error": 2.0, "time_ms": 0.1},
            ]),
            _record("cc", [{"operator": "sort", "rows": 3,
                            "time_ms": 0.1}]),  # evaluator-style: no est
            {"v": 99, "ops": []},  # future version
            {"ops": "garbage"},    # no version at all
        ]
        report = feedback_report(records)
        assert report.n_records == 2  # current-schema records only
        assert report.n_skipped == 4
        assert report.n_without_estimates == 1
        # the old records' operators never reach the aggregation
        assert [o.key for o in report.operators] == ["termjoin-scan(x)"]

    def test_min_count_filters_singletons(self):
        records = [
            _record("aa", [
                {"operator": "sort", "rows": 4, "est_rows": 8.0,
                 "q_error": 2.0, "time_ms": 0.1},
            ]),
        ]
        report = feedback_report(records, min_count=2)
        assert report.operators == []

    def test_render_and_to_dict(self):
        records = [_record("aa", [
            {"operator": "sort", "rows": 4, "est_rows": 8.0,
             "q_error": 2.0, "time_ms": 0.1},
        ])]
        report = feedback_report(records)
        text = report.render()
        assert "worst-misestimated operators" in text
        assert "sort" in text
        d = report.to_dict()
        assert d["operators"][0]["median_qerror"] == 2.0
        json.dumps(d)  # JSON-ready

    def test_empty_log_renders_hint(self):
        report = feedback_report([])
        assert "no per-operator estimates" in report.render()

    def test_end_to_end_from_audit_log(self):
        """A real guarded run writes a log tix feedback can read."""
        from repro.obs import events
        from repro.resilience import QueryGuard, run_query_guarded

        store = make_store()
        buf = io.StringIO()
        with events.logging_queries(buf):
            run_query_guarded(store, QUERY,
                              QueryGuard(max_rows=100, degrade=True))
        records = list(events.iter_events(
            io.StringIO(buf.getvalue())
        ))
        report = feedback_report(records)
        assert report.n_records == 1
        assert report.n_without_estimates == 0
        assert report.operators and report.shapes
        assert all(o.median_qerror >= 1.0 for o in report.operators)
