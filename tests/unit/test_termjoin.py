"""Unit tests for TermJoin and Enhanced TermJoin."""

import gc

import pytest

from repro.access.phrasejoin import PhraseJoin
from repro.access.termjoin import EnhancedTermJoin, TermJoin
from repro.core.scoring import ProximityScorer, WeightedCountScorer
from repro.xmldb.store import XMLStore


@pytest.fixture()
def tj_store():
    return XMLStore.from_sources({
        "a.xml": (
            "<a><t>alpha</t>"
            "<s><p>alpha beta</p><p>beta</p><p>none here</p></s>"
            "<s><p>gamma</p></s></a>"
        ),
        "b.xml": "<a><p>beta alpha</p></a>",
    })


def simple_oracle(store, terms, scorer):
    out = {}
    for doc in store.documents():
        for nid in range(len(doc)):
            words = doc.subtree_words(nid)
            counts = {t: words.count(t) for t in terms}
            if any(counts.values()):
                out[(doc.doc_id, nid)] = scorer.score_from_counts(counts)
    return out


class TestSimpleMode:
    def test_equals_oracle(self, tj_store):
        scorer = WeightedCountScorer(["alpha"], ["beta"])
        tj = TermJoin(tj_store, scorer)
        got = {(r.doc_id, r.node_id): r.score
               for r in tj.run(["alpha", "beta"])}
        assert got == simple_oracle(tj_store, ["alpha", "beta"], scorer)

    def test_only_containing_elements_emitted(self, tj_store):
        scorer = WeightedCountScorer(["gamma"])
        tj = TermJoin(tj_store, scorer)
        results = tj.run(["gamma"])
        doc = tj_store.document("a.xml")
        tags = sorted(doc.tags[r.node_id] for r in results)
        assert tags == ["a", "p", "s"]

    def test_output_in_end_key_order(self, tj_store):
        scorer = WeightedCountScorer(["alpha"], ["beta"])
        results = TermJoin(tj_store, scorer).run(["alpha", "beta"])
        per_doc_ends = {}
        for r in results:
            doc = tj_store.document(r.doc_id)
            per_doc_ends.setdefault(r.doc_id, []).append(
                doc.ends[r.node_id]
            )
        for ends in per_doc_ends.values():
            assert ends == sorted(ends)

    def test_unknown_term(self, tj_store):
        scorer = WeightedCountScorer(["zz"])
        assert TermJoin(tj_store, scorer).run(["zz"]) == []

    def test_single_term_single_posting(self, tj_store):
        scorer = WeightedCountScorer(["gamma"])
        results = TermJoin(tj_store, scorer).run(["gamma"])
        assert all(r.score == pytest.approx(0.8) for r in results)

    def test_counters_updated(self, tj_store):
        tj_store.counters.reset()
        scorer = WeightedCountScorer(["alpha"])
        TermJoin(tj_store, scorer).run(["alpha"])
        assert tj_store.counters.postings_read == 3
        assert tj_store.counters.index_lookups == 1


class TestComplexMode:
    def test_matches_tree_oracle(self, tj_store):
        from repro.core.trees import tree_from_document

        scorer = ProximityScorer(["alpha", "beta"])
        tj = TermJoin(tj_store, scorer, complex_scoring=True)
        got = {(r.doc_id, r.node_id): r.score
               for r in tj.run(["alpha", "beta"])}
        expected = {}
        for doc in tj_store.documents():
            tree = tree_from_document(doc)
            for nid, node in enumerate(tree.nodes()):
                if scorer.collect_occurrences(node):
                    expected[(doc.doc_id, nid)] = scorer.score_node(node)
        assert got.keys() == expected.keys()
        for k in got:
            assert got[k] == pytest.approx(expected[k])

    def test_enhanced_equals_base(self, tj_store):
        scorer = ProximityScorer(["alpha", "beta"])
        base = TermJoin(tj_store, scorer, complex_scoring=True)
        enh = EnhancedTermJoin(tj_store, scorer, complex_scoring=True)
        r1 = {(r.doc_id, r.node_id): r.score
              for r in base.run(["alpha", "beta"])}
        r2 = {(r.doc_id, r.node_id): r.score
              for r in enh.run(["alpha", "beta"])}
        assert r1.keys() == r2.keys()
        for k in r1:
            assert r1[k] == pytest.approx(r2[k])

    def test_base_navigates_enhanced_uses_index(self, tj_store):
        scorer = ProximityScorer(["alpha"])
        tj_store.counters.reset()
        TermJoin(tj_store, scorer, complex_scoring=True).run(["alpha"])
        nav_base = tj_store.counters.navigations
        tj_store.counters.reset()
        EnhancedTermJoin(tj_store, scorer, complex_scoring=True) \
            .run(["alpha"])
        nav_enh = tj_store.counters.navigations
        assert nav_base > 0
        assert nav_enh == 0

    def test_relevant_children_counted(self, tj_store):
        # <s> has 3 children, 2 containing query terms.
        captured = {}

        class Spy:
            def score_from_occurrences(self, occs, n_children, n_rel):
                captured[len(captured)] = (len(occs), n_children, n_rel)
                return float(len(occs))

        tj = TermJoin(tj_store, Spy(), complex_scoring=True)
        results = tj.run(["alpha", "beta"])
        doc = tj_store.document("a.xml")
        s_node = doc.find_by_tag("s")[0]
        for r in results:
            if r.doc_id == 0 and r.node_id == s_node:
                assert r.score == 3.0  # three occurrences under s
        stats = list(captured.values())
        assert (3, 3, 2) in stats  # s: 3 occs, 3 children, 2 relevant


class TestMultiDocument:
    def test_stack_resets_between_documents(self, tj_store):
        scorer = WeightedCountScorer(["alpha"], ["beta"])
        results = TermJoin(tj_store, scorer).run(["alpha", "beta"])
        docs = {r.doc_id for r in results}
        assert docs == {0, 1}
        b_doc = tj_store.document("b.xml")
        b_scores = {
            b_doc.tags[r.node_id]: r.score
            for r in results if r.doc_id == 1
        }
        assert b_scores == {"a": pytest.approx(1.4),
                            "p": pytest.approx(1.4)}


class TestResultRecords:
    """One record per scored element: slotted, with the fields, equality,
    hash and repr the frozen dataclasses had."""

    def test_scored_element(self):
        from repro.access.results import ScoredElement

        a = ScoredElement(1, 2, 0.5)
        assert not hasattr(a, "__dict__")
        assert (a.doc_id, a.node_id, a.score) == (1, 2, 0.5)
        assert a.key() == (1, 2)
        assert a == ScoredElement(1, 2, 0.5) != ScoredElement(1, 2, 0.6)
        assert len({a, ScoredElement(1, 2, 0.5)}) == 1
        assert repr(a) == "ScoredElement(doc_id=1, node_id=2, score=0.5)"

    def test_phrase_match(self):
        from repro.access.results import PhraseMatch, ScoredElement

        m = PhraseMatch(0, 3, 2, 2.0)
        assert not hasattr(m, "__dict__")
        assert m == PhraseMatch(0, 3, 2, 2.0) != PhraseMatch(0, 3, 1, 1.0)
        assert m != ScoredElement(0, 3, 2.0)
        assert hash(m) == hash(PhraseMatch(0, 3, 2, 2.0))
        assert repr(m) == \
            "PhraseMatch(doc_id=0, node_id=3, count=2, score=2.0)"


def _held_growth(run):
    """How many collector-tracked objects a held result adds: ``run``
    once to build the indexes and load the documents, then count the
    tracked objects around a second run whose result is kept."""
    run()
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        held = run()
        grown = len(gc.get_objects()) - before
    finally:
        gc.enable()
    return held, grown


def test_result_holds_no_per_row_objects():
    # The stack pass emits columns: a held result costs the collector a
    # constant number of objects, not one per scored element.
    for n_paras in (9, 5000):
        store = XMLStore.from_sources({
            "r.xml": "<r>" + "<p>alpha beta</p>" * n_paras + "</r>",
        })
        methods = [
            (TermJoin(store, WeightedCountScorer(["alpha"], ["beta"])),
             ["alpha", "beta"]),
            (EnhancedTermJoin(store, ProximityScorer(["alpha", "beta"]),
                              complex_scoring=True), ["alpha", "beta"]),
            (PhraseJoin(store, ["alpha beta"], [1.0]), ["alpha beta"]),
        ]
        for method, terms in methods:
            held, grown = _held_growth(lambda: method.run(terms))
            assert len(held) == n_paras + 1
            assert grown <= 8, (method.name, n_paras, grown)
