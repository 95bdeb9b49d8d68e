"""Unit tests for the §5.2 score-modifying operators (the algebra's
``scored_value_join`` and ``scored_union``) and the histogram-driven Pick
criterion (§5.3)."""

import pytest

from repro.core.operators import scored_union, scored_value_join
from repro.core.pick import PickCriterion, criterion_from_histogram
from repro.core.trees import SNode, STree


def tree(tag, score, words=(), source=None):
    node = SNode(tag, score=score, words=list(words), source=source)
    return STree(node)


class TestValueJoin:
    def test_similarity_condition(self):
        left = [tree("l1", 1.0, ["apple", "pie"]),
                tree("l2", 2.0, ["kiwi"])]
        right = [tree("r1", 3.0, ["apple", "tart"]),
                 tree("r2", 4.0, ["pear"])]
        out = scored_value_join(
            left, right,
            condition=lambda a, b: bool(
                set(a.root.words) & set(b.root.words)
            ),
        )
        assert len(out) == 1
        assert out[0].root.tag == "tix_prod_root"
        assert out[0].score == pytest.approx(4.0)  # 1.0 + 3.0

    def test_weights_and_custom_fn(self):
        left = [tree("l", 1.0, ["k"])]
        right = [tree("r", 2.0, ["k"])]
        out = scored_value_join(
            left, right,
            condition=lambda a, b: True,
            score_fn=lambda a, b: max(a, b),
            w1=10.0, w2=1.0,
        )
        assert out[0].score == pytest.approx(10.0)

    def test_no_matches(self):
        assert scored_value_join(
            [tree("l", 1.0)], [tree("r", 2.0)],
            condition=lambda a, b: False,
        ) == []

    def test_cartesian_cardinality(self):
        left = [tree("l", 1.0) for _ in range(3)]
        right = [tree("r", 1.0) for _ in range(4)]
        out = scored_value_join(left, right, condition=lambda a, b: True)
        assert len(out) == 12

    def test_children_are_copies(self):
        l = tree("l", 1.0, ["w"])
        out = scored_value_join(
            [l], [tree("r", 1.0)], condition=lambda a, b: True,
        )
        out[0].root.children[0].words.append("mutant")
        assert l.root.words == ["w"]


class TestScoredUnion:
    def test_shared_source_merged(self):
        left = [tree("x", 1.0, source=(0, 5))]
        right = [tree("x", 2.0, source=(0, 5))]
        out = scored_union(left, right)
        assert len(out) == 1
        assert out[0].score == pytest.approx(3.0)

    def test_one_sided_trees_kept(self):
        left = [tree("a", 1.0, source=(0, 1))]
        right = [tree("b", 2.0, source=(0, 2))]
        out = scored_union(left, right, w1=2.0, w2=0.5)
        scores = {t.root.tag: t.score for t in out}
        assert scores == {"a": 2.0, "b": 1.0}

    def test_membership_bonus_combine(self):
        # "give more weight to x that belongs to both A and B"
        def bonus(a, b):
            both = a > 0 and b > 0
            return (a + b) * (1.5 if both else 1.0)

        left = [tree("x", 2.0, source=(0, 1)),
                tree("y", 2.0, source=(0, 2))]
        right = [tree("x", 2.0, source=(0, 1))]
        out = scored_union(left, right, combine=bonus)
        scores = {t.root.tag: t.score for t in out}
        assert scores["x"] == pytest.approx(6.0)
        assert scores["y"] == pytest.approx(2.0)


class TestHistogramCriterion:
    def make_tree(self):
        root = SNode("root", score=0.1)
        for i in range(100):
            root.add_child(SNode("c", score=i / 100.0))
        return STree(root)

    def test_threshold_tracks_fraction(self):
        tree_ = self.make_tree()
        crit = criterion_from_histogram(tree_, top_fraction=0.2)
        assert isinstance(crit, PickCriterion)
        relevant = [
            n for n in tree_.nodes() if crit.is_relevant(n)
        ]
        # conservative: at least 20% qualify, not wildly more
        assert 20 <= len(relevant) <= 35

    def test_wider_fraction_lower_threshold(self):
        tree_ = self.make_tree()
        narrow = criterion_from_histogram(tree_, 0.1)
        wide = criterion_from_histogram(tree_, 0.5)
        assert wide.relevance_threshold <= narrow.relevance_threshold

    def test_options_carried(self):
        tree_ = self.make_tree()
        crit = criterion_from_histogram(
            tree_, 0.3, qualification=0.7, ignore_zero_children=True
        )
        assert crit.qualification == 0.7
        assert crit.ignore_zero_children
