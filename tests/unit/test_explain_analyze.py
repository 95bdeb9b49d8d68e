"""EXPLAIN ANALYZE and operator-instrumentation tests: per-operator
stats collection, recursive reset on re-execution, the open() error
path, and the zero-overhead-when-disabled contract."""

import time

import pytest

from repro import obs
from repro.access.termjoin import TermJoin
from repro.core.scoring import WeightedCountScorer
from repro.engine import (
    Limit,
    Sort,
    TermJoinScan,
    execute,
    explain,
)
from repro.engine.base import Operator, plan_stats
from repro.errors import PlanError
from repro.exampledata import example_store


@pytest.fixture()
def store():
    return example_store()


def _scorer(terms):
    return WeightedCountScorer([terms[0]], list(terms[1:]))


def _plan(store):
    return Limit(
        Sort(TermJoinScan(store, ["search"],
                          TermJoin(store, _scorer(["search"]))),
             key=lambda t: -t.score),
        2,
    )


class TestExplainAnalyze:
    def test_default_format_unchanged(self, store):
        plan = _plan(store)
        execute(plan)
        text = explain(plan)
        assert "[rows=" in text
        assert "time=" not in text and "loops=" not in text

    def test_plan_that_never_ran_has_no_actuals(self, store):
        # Regression: an unexecuted plan read as one that returned 0
        # rows, with a q-error against an execution that never happened.
        from repro.query import parse_query
        from repro.query.compiler import compile_query

        plan = compile_query(store, parse_query(
            'For $x in document("articles.xml")'
            '//article/descendant-or-self::* '
            'Score $x using ScoreFooExact($x, {"search"}) '
            'Return $x Sortby(score)'))
        nodes = [plan_stats(plan)]
        while nodes:
            node = nodes.pop()
            assert node["est_rows"] is not None, node["operator"]
            assert node["rows"] is None and node["q_error"] is None
            assert node["loops"] == 0
            nodes += node["children"]
        text = explain(plan)
        assert "[rows=" not in text and "(est_rows=" in text
        assert "rows=" not in explain(plan, analyze=True).replace(
            "est_rows=", "")
        execute(plan)
        ran = plan_stats(plan)
        assert ran["rows"] >= 1 and ran["q_error"] >= 1.0
        assert "[rows=" in explain(plan)

    def test_analyze_line_format(self, store):
        plan = _plan(store)
        with obs.collecting():
            execute(plan)
        text = explain(plan, analyze=True)
        for op_line in text.splitlines():
            assert "time=" in op_line
            assert "rows=" in op_line
            assert "loops=" in op_line

    def test_analyze_shows_access_method_counters(self, store):
        plan = TermJoinScan(store, ["search"],
                            TermJoin(store, _scorer(["search"])))
        with obs.collecting():
            execute(plan)
        text = explain(plan, analyze=True)
        assert "postings_scanned=" in text
        assert "stack_pushes=" in text

    def test_counters_kept_without_collector(self, store):
        # rows and access-method counters are exact on every run;
        # timings/loops need a collector.
        plan = _plan(store)
        execute(plan)
        scan = plan.children[0].children[0]
        assert scan.stats.counters["postings_scanned"] > 0
        assert scan.stats.loops == 0
        assert scan.stats.total_ns == 0

    def test_plan_stats_tree(self, store):
        plan = _plan(store)
        with obs.collecting():
            execute(plan)
        stats = plan_stats(plan)
        assert stats["operator"] == "limit"
        assert stats["rows"] == 2
        assert stats["time_ms"] >= stats["self_time_ms"] >= 0.0
        (sort_stats,) = stats["children"]
        (scan_stats,) = sort_stats["children"]
        assert scan_stats["operator"] == "termjoin-scan"
        assert scan_stats["counters"]["postings_scanned"] > 0

    def test_stats_reset_recursively_on_reexecution(self, store):
        plan = _plan(store)
        with obs.collecting():
            execute(plan)

        def collect(op):
            yield op
            for c in op.children:
                for x in collect(c):
                    yield x

        first = {id(op): (op.stats.loops, dict(op.stats.counters),
                          op.rows_out) for op in collect(plan)}
        with obs.collecting():
            execute(plan)
        for op in collect(plan):
            loops, counters, rows = first[id(op)]
            assert op.stats.loops == loops, op.name       # not doubled
            assert op.stats.counters == counters, op.name
            assert op.rows_out == rows, op.name


class _FailingOpen(Operator):
    name = "failing-open"

    def _open(self):
        raise RuntimeError("boom")

    def _next(self):
        return None


class _CloseTracking(Operator):
    name = "close-tracking"

    def __init__(self, children=()):
        super().__init__(children)
        self.closes = 0

    def _next(self):
        return None

    def _close(self):
        self.closes += 1


class TestOpenErrorPath:
    def test_failed_open_closes_opened_children(self):
        ok = _CloseTracking()
        parent = _FailingOpen([ok])
        with pytest.raises(RuntimeError, match="boom"):
            parent.open()
        assert ok.closes == 1             # opened child was closed again
        assert not ok._opened
        assert not parent._opened

    def test_failed_child_open_closes_earlier_siblings(self):
        first = _CloseTracking()
        bad = _FailingOpen()
        parent = _CloseTracking([first, bad])
        with pytest.raises(RuntimeError):
            parent.open()
        assert first.closes == 1
        assert not parent._opened
        # next()/close() on the unopened tree still raise cleanly.
        with pytest.raises(PlanError):
            parent.next()
        with pytest.raises(PlanError):
            parent.close()

    def test_tree_reusable_after_failed_open(self):
        bad = _FailingOpen()
        first = _CloseTracking()
        parent = _CloseTracking([first, bad])
        with pytest.raises(RuntimeError):
            parent.open()
        bad._open = lambda: None          # "fix" the failure
        assert execute(parent) == []
        assert first.closes == 2          # error path + normal close

    def test_failed_open_under_collector(self):
        with obs.collecting() as col:
            with pytest.raises(RuntimeError):
                _FailingOpen([_CloseTracking()]).open()
        # spans were closed despite the exception
        assert not col.tracer._local.stack


class _StackEntry:
    """The seed kernel's stacked ancestor."""

    def __init__(self, node_id, track_occurrences):
        self.node_id = node_id
        self.counts = {}
        self.occs = [] if track_occurrences else None
        self.relevant_children = 0


class _SeedTermJoin(TermJoin):
    """``TermJoin.run`` as it was before the observability layer landed
    (the seed commit's record-at-a-time kernel, reading posting rows):
    the baseline against which the disabled-instrumentation overhead is
    asserted."""

    def run(self, terms):
        from repro.access.results import ScoredElement

        index = self.store.index
        counters = self.store.counters
        track = self.complex_scoring

        merged = []
        for term in terms:
            postings = index.postings(term)
            counters.index_lookups += 1
            counters.postings_read += len(postings)
            merged.extend(row + (term,) for row in postings)
        merged.sort()

        out = []
        stack = []
        cur_doc = None
        cur_doc_id = -1
        parents = []
        ends = []

        def pop_and_emit():
            popped = stack.pop()
            if stack:
                top = stack[-1]
                for t, c in popped.counts.items():
                    top.counts[t] = top.counts.get(t, 0) + c
                if track:
                    top.occs.extend(popped.occs)
                top.relevant_children += 1
            if track:
                n_children = self._child_count(cur_doc, popped.node_id)
                popped.occs.sort(key=lambda o: (o[1], o[2]))
                score = self.scorer.score_from_occurrences(
                    popped.occs, n_children, popped.relevant_children
                )
            else:
                score = self.scorer.score_from_counts(popped.counts)
            out.append(ScoredElement(cur_doc_id, popped.node_id, score))

        for doc_id, pos, node_id, offset, term in merged:
            if doc_id != cur_doc_id:
                while stack:
                    pop_and_emit()
                cur_doc = self.store.document(doc_id)
                cur_doc_id = doc_id
                parents = cur_doc.parents
                ends = cur_doc.ends
            while stack and ends[stack[-1].node_id] < pos:
                pop_and_emit()
            top_node = stack[-1].node_id if stack else -1
            chain = []
            cur = node_id
            while cur != -1 and cur != top_node:
                chain.append(cur)
                cur = parents[cur]
            for nid in reversed(chain):
                stack.append(_StackEntry(nid, track))
            top = stack[-1]
            top.counts[term] = top.counts.get(term, 0) + 1
            if track:
                top.occs.append((term, node_id, offset))

        while stack:
            pop_and_emit()
        return out


class TestDisabledOverhead:
    """The zero-overhead contract: with no collector installed, the
    instrumented TermJoin (the Table-1 workhorse) must stay within 5%
    of its seed version on a Table-1-shaped query."""

    def test_disabled_overhead_under_five_percent(self):
        from repro.workload import generate_corpus, table123_spec

        assert not obs.RECORDER.enabled
        spec, rows = table123_spec(scale=0.05, n_articles=200)
        store = generate_corpus(spec)
        store.index                         # build outside the timings
        row = max(rows["table1"], key=lambda r: r.label)
        terms = list(row.terms)
        scorer = _scorer(terms)
        inst = TermJoin(store, scorer)
        seed = _SeedTermJoin(store, scorer)
        assert [(e.node_id, e.score) for e in inst.run(terms)] == \
               [(e.node_id, e.score) for e in seed.run(terms)]

        def best_of(method, reps=5):
            best = float("inf")
            for _ in range(reps):
                t0 = time.perf_counter()
                method.run(terms)
                best = min(best, time.perf_counter() - t0)
            return best

        # Timing comparisons are noisy: accept the first attempt whose
        # best-of-5 ratio is under the bound rather than averaging noise
        # into a flake.
        ratios = []
        for _ in range(5):
            ratio = best_of(inst) / best_of(seed)
            ratios.append(ratio)
            if ratio < 1.05:
                return
        pytest.fail(
            "disabled instrumentation overhead >= 5% in every attempt: "
            + ", ".join(f"{r:.3f}" for r in ratios)
        )

