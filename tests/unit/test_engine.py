"""Unit tests for the pipelined engine operators."""

import pytest

from repro.access.termjoin import TermJoin
from repro.core.scoring import WeightedCountScorer
from repro.core.trees import StoredTree
from repro.engine import (
    Limit,
    Materialize,
    Sort,
    TermJoinScan,
    TopK,
    execute,
    explain,
)
from repro.engine.base import Operator
from repro.errors import PlanError
from repro.exampledata import example_store
from repro.query.compiler import StructuralFilter


@pytest.fixture()
def store():
    return example_store()


def _scan(store, term="search", **kw):
    return TermJoinScan(store, [term],
                        TermJoin(store, WeightedCountScorer([term])), **kw)


def _regions(store):
    doc = store.document("articles.xml")
    return [(doc.doc_id, doc.starts[doc.root], doc.ends[doc.root])]


class TestProtocol:
    def test_next_before_open_raises(self, store):
        op = _scan(store)
        with pytest.raises(PlanError):
            op.next()

    def test_double_open_raises(self, store):
        op = _scan(store)
        op.open()
        with pytest.raises(PlanError):
            op.open()

    def test_close_before_open_raises(self, store):
        with pytest.raises(PlanError):
            _scan(store).close()

    def test_reopen_after_close(self, store):
        op = _scan(store)
        n = len(execute(op))
        assert n > 0
        assert len(execute(op)) == n  # open/close cycle reusable

    def test_next_after_close_raises(self, store):
        op = _scan(store)
        op.open()
        op.close()
        with pytest.raises(PlanError, match="after close"):
            op.next()

    def test_next_before_open_message(self, store):
        with pytest.raises(PlanError, match="before open"):
            _scan(store).next()

    def test_double_close_raises(self, store):
        op = _scan(store)
        op.open()
        op.close()
        with pytest.raises(PlanError, match="close"):
            op.close()

    def test_iter_before_open_raises(self, store):
        with pytest.raises(PlanError):
            list(_scan(store))

    def test_protocol_violations_raise_plan_error_not_attribute_error(
        self, store
    ):
        # The protocol errors must be PlanError (a TIXError) on every
        # operator a compiled plan builds — never an obscure
        # AttributeError from a missing buffer that only _open() would
        # have created.
        ops = [
            _scan(store),
            StructuralFilter(_scan(store), store, _regions(store)),
            Sort(_scan(store)),
            Limit(_scan(store), 1),
            TopK(_scan(store), 1),
            Materialize(_scan(store)),
        ]
        for op in ops:
            with pytest.raises(PlanError):
                op.next()
            op.open()
            op.close()
            with pytest.raises(PlanError):
                op.next()

    def test_rows_out_counted(self, store):
        op = _scan(store)
        out = execute(op)
        assert op.rows_out == len(out) > 0


class TestSources:
    def test_termjoin_scan_lazy_nodes(self, store):
        scorer = WeightedCountScorer(["search"])
        op = TermJoinScan(store, ["search"], TermJoin(store, scorer))
        out = execute(op)
        assert all(t.root.source is not None for t in out)
        assert all(not t.root.children for t in out)

    def test_termjoin_scan_min_score(self, store):
        scorer = WeightedCountScorer(["search"])
        op = TermJoinScan(store, ["search"], TermJoin(store, scorer),
                          min_score=2.0)
        out = execute(op)
        assert all(t.score > 2.0 for t in out)


class TestScoreUtilizing:
    def test_sort_and_limit(self, store):
        scorer = WeightedCountScorer(["search"], ["retrieval"])
        plan = Limit(
            Sort(TermJoinScan(store, ["search", "retrieval"],
                              TermJoin(store, scorer))),
            3,
        )
        out = execute(plan)
        assert len(out) == 3
        scores = [t.score for t in out]
        assert scores == sorted(scores, reverse=True)

    def test_materialize(self, store):
        scorer = WeightedCountScorer(["search"])
        plan = Materialize(
            TermJoinScan(store, ["search"], TermJoin(store, scorer)),
        )
        out = execute(plan)
        biggest = max(out, key=lambda t: t.n_nodes())
        assert biggest.n_nodes() > 1
        assert biggest.score is not None


class _Rows(Operator):
    """A source handing out fixed rows in order."""

    name = "rows"

    def __init__(self, rows):
        super().__init__()
        self.rows = rows

    def _open(self):
        self._it = iter(self.rows)

    def _next(self):
        return next(self._it, None)


class TestRankOrder:
    """The order Sort and TopK hand rows out in, ties included.  Rows
    are tagged by node id; ``None`` scores rank as ``-inf``."""

    SCORES = [1.0, 3.0, None, 2.0, 3.0, 1.0, 2.0, None, 3.0, 0.5]

    def _rows(self, store):
        doc = store.document("articles.xml")
        return [StoredTree(doc, nid, score)
                for nid, score in enumerate(self.SCORES)]

    def test_sort_is_stable_descending(self, store):
        out = execute(Sort(_Rows(self._rows(store))))
        assert [t.node_id for t in out] == [1, 4, 8, 3, 6, 0, 5, 9, 2, 7]

    def test_sort_ascending_is_stable(self, store):
        out = execute(Sort(_Rows(self._rows(store)), descending=False))
        assert [t.node_id for t in out] == [2, 7, 9, 0, 5, 3, 6, 1, 4, 8]

    @pytest.mark.parametrize("k, expected", [
        (1, [1]),
        (2, [1, 4]),
        (5, [1, 4, 8, 3, 6]),
        (6, [1, 4, 8, 3, 6, 0]),
        (10, [1, 4, 8, 3, 6, 0, 5, 9, 2, 7]),
        (20, [1, 4, 8, 3, 6, 0, 5, 9, 2, 7]),
    ])
    def test_topk_earlier_arrival_wins_a_tie(self, store, k, expected):
        out = execute(TopK(_Rows(self._rows(store)), k))
        assert [t.node_id for t in out] == expected

    def test_topk_equals_sort_then_limit(self, store):
        rows = self._rows(store)
        for k in range(1, len(rows) + 2):
            assert ([t.node_id for t in execute(TopK(_Rows(rows), k))]
                    == [t.node_id
                        for t in execute(Limit(Sort(_Rows(rows)), k))])

    def test_topk_invalid_k(self):
        with pytest.raises(ValueError):
            TopK(_Rows([]), 0)

    def test_topk_none_scores_rank_last(self, store):
        doc = store.document("articles.xml")
        rows = [StoredTree(doc, 0, None), StoredTree(doc, 1, 1.0)]
        out = execute(TopK(_Rows(rows), 2))
        assert [t.node_id for t in out] == [1, 0]


class TestExplain:
    def test_explain_shows_rows(self, store):
        plan = Limit(_scan(store), 2)
        execute(plan)
        text = explain(plan)
        assert "limit(2) [rows=2]" in text
        assert "termjoin-scan(TermJoin, terms=['search']) [rows=" in text
