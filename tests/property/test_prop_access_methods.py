"""Property tests: every score-generating access method agrees with the
naive oracle (and therefore with every other) on random documents."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.access.composite import Comp1, Comp2, Comp3
from repro.access.phrasefinder import PhraseFinder
from repro.access.termjoin import EnhancedTermJoin, TermJoin
from repro.core.scoring import (
    ProximityScorer,
    WeightedCountScorer,
    count_phrase,
)
from repro.core.trees import tree_from_document
from repro.joins.meet import generalized_meet
from repro.joins.structural import naive_structural_join, stack_tree_join
from repro.xmldb.store import XMLStore

from .strategies import VOCAB, build_document, doc_shapes

TERMS = ["red", "green"]


def make_store(shape) -> XMLStore:
    store = XMLStore()
    store.add_document(build_document(shape))
    return store


def simple_oracle(store, terms, scorer):
    out = {}
    for doc in store.documents():
        for nid in range(len(doc)):
            words = doc.subtree_words(nid)
            counts = {t: words.count(t) for t in terms}
            if any(counts.values()):
                out[(doc.doc_id, nid)] = pytest.approx(
                    scorer.score_from_counts(counts)
                )
    return out


@given(doc_shapes)
@settings(max_examples=60, deadline=None)
def test_simple_methods_equal_oracle(shape):
    store = make_store(shape)
    scorer = WeightedCountScorer([TERMS[0]], [TERMS[1]])
    oracle = simple_oracle(store, TERMS, scorer)
    for method in (
        TermJoin(store, scorer),
        Comp1(store, scorer),
        Comp2(store, scorer),
    ):
        got = {(r.doc_id, r.node_id): r.score for r in method.run(TERMS)}
        assert got == oracle, type(method).__name__
    meet = {
        (r.doc_id, r.node_id): r.score
        for r in generalized_meet(store, TERMS, scorer)
    }
    assert meet == oracle


@given(doc_shapes)
@settings(max_examples=40, deadline=None)
def test_complex_methods_agree(shape):
    store = make_store(shape)
    scorer = ProximityScorer(TERMS)
    reference = {
        (r.doc_id, r.node_id): r.score
        for r in TermJoin(store, scorer, True).run(TERMS)
    }
    # tree-level oracle
    doc = store.document(0)
    tree = tree_from_document(doc)
    expected = {}
    for nid, node in enumerate(tree.nodes()):
        if scorer.collect_occurrences(node):
            expected[(0, nid)] = scorer.score_node(node)
    assert reference.keys() == expected.keys()
    for k in reference:
        assert reference[k] == pytest.approx(expected[k])
    for method in (
        EnhancedTermJoin(store, scorer, True),
        Comp1(store, scorer, True),
        Comp2(store, scorer, True),
    ):
        got = {(r.doc_id, r.node_id): r.score for r in method.run(TERMS)}
        assert got.keys() == reference.keys(), type(method).__name__
        for k in got:
            assert got[k] == pytest.approx(reference[k]), \
                type(method).__name__
    meet = {
        (r.doc_id, r.node_id): r.score
        for r in generalized_meet(store, TERMS, scorer, True)
    }
    assert meet.keys() == reference.keys()
    for k in meet:
        assert meet[k] == pytest.approx(reference[k])


@given(doc_shapes, st.lists(st.sampled_from(VOCAB), min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_phrasefinder_equals_comp3_and_count_oracle(shape, phrase):
    store = make_store(shape)
    pf = [(m.doc_id, m.node_id, m.count)
          for m in PhraseFinder(store).run(phrase)]
    c3 = [(m.doc_id, m.node_id, m.count)
          for m in Comp3(store).run(phrase)]
    assert pf == c3
    doc = store.document(0)
    expected = []
    for nid in range(len(doc)):
        count = count_phrase(doc.direct_words(nid), phrase)
        if count:
            expected.append((0, nid, count))
    assert pf == expected


@given(doc_shapes, st.sampled_from(VOCAB))
@settings(max_examples=60, deadline=None)
def test_stack_tree_join_equals_naive(shape, term):
    store = make_store(shape)
    ancestors = store.structure.all_elements()
    postings = store.index.postings(term).postings
    assert stack_tree_join(ancestors, postings) == \
        naive_structural_join(ancestors, postings)
    # element-vs-element as well
    doc = store.document(0)
    desc = [ref for ref in ancestors if doc.tags[ref[4]] == "b"]
    assert stack_tree_join(ancestors, desc) == \
        naive_structural_join(ancestors, desc)
