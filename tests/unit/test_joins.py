"""Unit tests for structural joins and Generalized Meet."""

import pytest

from repro.core.scoring import ProximityScorer, WeightedCountScorer
from repro.joins.meet import generalized_meet
from repro.joins.structural import naive_structural_join, stack_tree_join
from repro.xmldb.store import XMLStore


@pytest.fixture()
def join_store():
    return XMLStore.from_sources({
        "a.xml": "<a><b>x</b><c><d>x y</d></c>y</a>",
        "b.xml": "<a><b><c>x</c></b></a>",
    })


def refs_with_tag(store, tag):
    return [
        ref for ref in store.structure.all_elements()
        if store.document(ref[0]).tags[ref[4]] == tag
    ]


def refs_and_postings(store, term):
    ancestors = store.structure.all_elements()
    postings = store.index.postings(term).postings
    return ancestors, postings


class TestStackTreeJoin:
    def test_matches_naive_on_postings(self, join_store):
        for term in ("x", "y"):
            anc, post = refs_and_postings(join_store, term)
            fast = stack_tree_join(anc, post)
            slow = naive_structural_join(anc, post)
            assert fast == slow

    def test_element_vs_element(self, join_store):
        anc = refs_with_tag(join_store, "a")
        desc = refs_with_tag(join_store, "c")
        out = stack_tree_join(anc, desc)
        assert len(out) == 2
        for a, d in out:
            assert a[0] == d[0]
            assert a[1] < d[1] and d[2] <= a[2]

    def test_empty_inputs(self, join_store):
        anc = join_store.structure.all_elements()
        assert stack_tree_join(anc, []) == []
        assert stack_tree_join([], anc) == []

    def test_cross_document_isolation(self, join_store):
        anc, post = refs_and_postings(join_store, "x")
        pairs = stack_tree_join(anc, post)
        assert all(a[0] == p[0] for a, p in pairs)

    def test_output_ancestors_outermost_first(self, join_store):
        anc, post = refs_and_postings(join_store, "x")
        pairs = stack_tree_join(anc, post)
        by_desc = {}
        for a, d in pairs:
            by_desc.setdefault(d, []).append(a)
        for ancs in by_desc.values():
            levels = [a[3] for a in ancs]
            assert levels == sorted(levels)


class TestGeneralizedMeet:
    def test_equals_oracle_simple(self, join_store):
        scorer = WeightedCountScorer(["x"], ["y"])
        got = {
            (r.doc_id, r.node_id): r.score
            for r in generalized_meet(join_store, ["x", "y"], scorer)
        }
        expected = {}
        for doc in join_store.documents():
            for nid in range(len(doc)):
                words = doc.subtree_words(nid)
                counts = {
                    "x": words.count("x"), "y": words.count("y"),
                }
                if counts["x"] or counts["y"]:
                    expected[(doc.doc_id, nid)] = scorer.score_from_counts(
                        counts
                    )
        assert got == expected

    def test_every_node_emitted_once(self, join_store):
        scorer = WeightedCountScorer(["x"])
        results = generalized_meet(join_store, ["x"], scorer)
        keys = [(r.doc_id, r.node_id) for r in results]
        assert len(keys) == len(set(keys))

    def test_partial_matches_included(self, join_store):
        # <b>x</b> contains only 'x', still scored (lower).
        scorer = WeightedCountScorer(["x"], ["y"])
        got = {
            (r.doc_id, r.node_id): r.score
            for r in generalized_meet(join_store, ["x", "y"], scorer)
        }
        doc = join_store.document("a.xml")
        b = doc.find_by_tag("b")[0]
        assert got[(0, b)] == pytest.approx(0.8)

    def test_empty_terms(self, join_store):
        scorer = WeightedCountScorer(["zz"])
        assert generalized_meet(join_store, ["zz"], scorer) == []

    def test_complex_mode_matches_termjoin(self, join_store):
        from repro.access.termjoin import TermJoin

        scorer = ProximityScorer(["x", "y"])
        meet = {
            (r.doc_id, r.node_id): r.score
            for r in generalized_meet(
                join_store, ["x", "y"], scorer, complex_scoring=True
            )
        }
        tj = {
            (r.doc_id, r.node_id): r.score
            for r in TermJoin(join_store, scorer, complex_scoring=True)
            .run(["x", "y"])
        }
        assert meet.keys() == tj.keys()
        for k in meet:
            assert meet[k] == pytest.approx(tj[k])
