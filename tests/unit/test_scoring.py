"""Unit tests for the scoring-function library."""

import math

import pytest

from repro.core.scoring import (
    ProximityScorer,
    TfIdfScorer,
    WeightedCountScorer,
    cosine_similarity,
    count_phrase,
    s_stem,
    score_bar,
    score_sim,
)
from repro.core.trees import SNode, STree, tree_from_text


class TestCountPhrase:
    def test_single_term(self):
        assert count_phrase(["a", "b", "a"], ["a"]) == 2

    def test_two_term_phrase(self):
        assert count_phrase(["x", "a", "b", "a", "b"], ["a", "b"]) == 2

    def test_overlapping(self):
        assert count_phrase(["a", "a", "a"], ["a", "a"]) == 2

    def test_no_match(self):
        assert count_phrase(["a", "b"], ["b", "a"]) == 0

    def test_phrase_longer_than_text(self):
        assert count_phrase(["a"], ["a", "b"]) == 0

    def test_empty_phrase(self):
        assert count_phrase(["a"], []) == 0


class TestSStem:
    def test_plural_stripped(self):
        assert s_stem("engines") == "engine"

    def test_short_words_kept(self):
        assert s_stem("was") == "was"

    def test_double_s_kept(self):
        assert s_stem("class") == "class"

    def test_non_plural_unchanged(self):
        assert s_stem("engine") == "engine"


class TestWeightedCountScorer:
    def test_paper_weights(self):
        scorer = WeightedCountScorer(
            primary=["search engine"],
            secondary=["internet", "information retrieval"],
        )
        s = scorer.score_words(
            "search engine newsinessence uses a new information "
            "retrieval technology".split()
        )
        assert s == pytest.approx(1.4)

    def test_stemming_recovers_plural_phrase(self):
        scorer = WeightedCountScorer(primary=["search engine"], stem=True)
        assert scorer.score_words(["some", "search", "engines"]) == \
            pytest.approx(0.8)
        unstemmed = WeightedCountScorer(primary=["search engine"])
        assert unstemmed.score_words(["some", "search", "engines"]) == 0.0

    def test_custom_weights(self):
        scorer = WeightedCountScorer(["a"], ["b"], primary_weight=2.0,
                                     secondary_weight=0.5)
        assert scorer.score_words(["a", "b", "b"]) == pytest.approx(3.0)

    def test_score_node_uses_subtree(self):
        root = SNode("r", words=["internet"])
        root.add_child(SNode("c", words=["internet"]))
        STree(root)
        scorer = WeightedCountScorer([], ["internet"])
        assert scorer.score_node(root) == pytest.approx(1.2)

    def test_score_from_counts_matches_score_words(self):
        scorer = WeightedCountScorer(["a"], ["b"])
        words = ["a", "b", "a", "c"]
        assert scorer.score_from_counts({"a": 2, "b": 1}) == \
            pytest.approx(scorer.score_words(words))

    def test_term_weights_are_fixed_at_construction(self):
        # score_from_counts runs once per popped element: it reads the
        # weights computed in __init__, and term_weights() hands out a
        # copy so callers cannot reach them.
        scorer = WeightedCountScorer(["a"], ["b"])
        handed_out = scorer.term_weights()
        handed_out["a"] = 100.0
        assert scorer.term_weights() == {"a": 0.8, "b": 0.6}
        assert scorer.score_from_counts({"a": 2, "b": 1, "zz": 9}) == \
            pytest.approx(2 * 0.8 + 0.6)
        assert scorer.score_from_counts({}) == 0

    def test_term_weights_single_terms_only(self):
        scorer = WeightedCountScorer(["a", "two words"], ["b"])
        assert scorer.term_weights() == {"a": 0.8, "b": 0.6}


class TestTfIdf:
    def test_normalization_by_length(self):
        scorer = TfIdfScorer(["x"], idf={"x": 2.0})
        short = scorer.score_words(["x"])
        long_ = scorer.score_words(["x"] + ["pad"] * 3)
        assert short == pytest.approx(2.0)
        assert long_ == pytest.approx(2.0 / math.sqrt(4))

    def test_empty_words(self):
        assert TfIdfScorer(["x"], {}).score_words([]) == 0.0

    def test_counts_entry_point(self):
        scorer = TfIdfScorer(["x"], idf={"x": 3.0})
        assert scorer.score_from_counts({"x": 2}, subtree_len=4) == \
            pytest.approx(6.0 / 2.0)
        assert scorer.score_from_counts({"x": 2}, subtree_len=0) == 0.0


class TestProximityScorer:
    def test_same_node_distance(self):
        scorer = ProximityScorer(["a", "b"])
        # adjacent in the same text node: d=1 → bonus 1/2
        s = scorer.score_from_occurrences(
            [("a", 5, 0), ("b", 5, 1)], n_children=0,
            n_relevant_children=0,
        )
        assert s == pytest.approx(2.0 + 0.5)

    def test_cross_node_distance(self):
        scorer = ProximityScorer(["a", "b"], node_distance=20)
        s = scorer.score_from_occurrences(
            [("a", 5, 0), ("b", 6, 0)], 0, 0
        )
        assert s == pytest.approx(2.0 + 1.0 / 21.0)

    def test_same_term_pairs_no_bonus(self):
        scorer = ProximityScorer(["a", "b"])
        s = scorer.score_from_occurrences(
            [("a", 5, 0), ("a", 5, 1)], 0, 0
        )
        assert s == pytest.approx(2.0)

    def test_child_ratio_scales(self):
        scorer = ProximityScorer(["a"])
        occ = [("a", 1, 0)]
        full = scorer.score_from_occurrences(occ, 2, 2)
        half = scorer.score_from_occurrences(occ, 2, 1)
        assert half == pytest.approx(full / 2)

    def test_score_node_matches_occurrence_path(self):
        root = SNode("r")
        c1 = root.add_child(SNode("c", words=["a", "x", "b"]))
        root.add_child(SNode("c", words=["none"]))
        STree(root)
        scorer = ProximityScorer(["a", "b"])
        expected = scorer.score_from_occurrences(
            [("a", 1, 0), ("b", 1, 2)], n_children=2,
            n_relevant_children=1,
        )
        assert scorer.score_node(root) == pytest.approx(expected)

    def test_empty_occurrences(self):
        assert ProximityScorer(["a"]).score_from_occurrences([], 3, 0) == 0.0


class TestJoinScoring:
    def test_score_sim_distinct_common_words(self):
        a = tree_from_text("t", "internet technologies").root
        b = tree_from_text("t", "internet technologies").root
        assert score_sim(a, b) == 2.0

    def test_score_sim_no_overlap(self):
        a = tree_from_text("t", "alpha").root
        b = tree_from_text("t", "beta").root
        assert score_sim(a, b) == 0.0

    def test_score_bar_gates_on_second(self):
        assert score_bar(2.0, 0.8) == pytest.approx(2.8)
        assert score_bar(2.0, 0.0) == 0.0
        assert score_bar(2.0, -1.0) == 0.0

    def test_cosine_similarity(self):
        assert cosine_similarity(["a", "b"], ["a", "b"]) == pytest.approx(1.0)
        assert cosine_similarity(["a"], ["b"]) == 0.0
        assert cosine_similarity([], ["b"]) == 0.0
        assert 0 < cosine_similarity(["a", "b"], ["a"]) < 1
