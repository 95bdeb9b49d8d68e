"""Scoring-function library.

Implements the paper's example user functions (Fig. 9) plus the two
scoring modes the evaluation section uses (§6.1) and a tf·idf scorer:

- :class:`WeightedCountScorer` — ``ScoreFoo``: a weighted sum of phrase
  occurrence counts over a node's subtree text (primary phrases weight
  0.8, secondary 0.6 in the paper's running example).  This is also the
  *simple* scoring function of the experiments (per-term weighted counts).
- :class:`ProximityScorer` — the *complex* scoring function of §6.1: term
  proximity (offset distance within a text node, node-distance multiples
  across text nodes) and the ratio of relevant children to total children.
- :class:`TfIdfScorer` — the tf·idf variant §3.1 suggests.
- :func:`score_sim` — ``ScoreSim``: word-overlap similarity of two nodes.
- :func:`score_bar` — ``ScoreBar``: combine a join score with a content
  score, zeroing out when the content score is zero.

All scorers expose a count/occurrence-level entry point used by the
TermJoin access methods (which accumulate counters on their stacks) in
addition to the tree-level ``score_node`` used by the algebra operators —
both produce identical values, which the tests assert.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.core.trees import SNode
from repro.xmldb.text import tokenize_phrase

#: An occurrence, as accumulated by TermJoin's complex mode:
#: (term, text_node_key, offset) — ``text_node_key`` is any value that is
#: equal for words of the same text node and monotone in document order
#: (node ids for stored documents; preorder index for algebra trees).
Occurrence = Tuple[str, int, int]


def s_stem(word: str) -> str:
    """Tiny plural stemmer: strips a trailing ``s`` from words longer than
    three characters (``engines`` → ``engine``).  The paper's example
    scores (Figs. 5-8) require "search engines" to count as an occurrence
    of the phrase "search engine"; this minimal stemmer is sufficient and
    deterministic."""
    if len(word) > 3 and word.endswith("s") and not word.endswith("ss"):
        return word[:-1]
    return word


class ScoringFunction:
    """Base class: a scoring function maps a data node to a real score."""

    def score_node(self, node: SNode) -> float:
        raise NotImplementedError

    def score_words(self, words: Sequence[str]) -> float:
        """Score a plain word sequence (no structure available)."""
        raise NotImplementedError


def count_phrase(words: Sequence[str], phrase: Sequence[str]) -> int:
    """Number of (possibly overlapping) occurrences of ``phrase`` as a
    contiguous subsequence of ``words``."""
    if not phrase or len(phrase) > len(words):
        return 0
    first = phrase[0]
    k = len(phrase)
    count = 0
    for i in range(len(words) - k + 1):
        if words[i] == first and list(words[i:i + k]) == list(phrase):
            count += 1
    return count


class WeightedCountScorer(ScoringFunction):
    """The paper's ``ScoreFoo`` (Fig. 9) and the experiments' *simple*
    scoring function.

    ``score = Σ_{a ∈ primary} 0.8·count(a, alltext)
            + Σ_{b ∈ secondary} 0.6·count(b, alltext)``

    Phrases may be multi-word; with ``stem=True`` a light plural stemmer
    is applied to both document words and phrase terms (needed to
    reproduce the paper's example scores exactly).
    """

    def __init__(
        self,
        primary: Sequence[str],
        secondary: Sequence[str] = (),
        primary_weight: float = 0.8,
        secondary_weight: float = 0.6,
        stem: bool = False,
    ):
        self.primary_weight = primary_weight
        self.secondary_weight = secondary_weight
        self.stem = stem
        self._phrases: List[Tuple[List[str], float]] = []
        for phrase in primary:
            self._phrases.append((self._prep(phrase), primary_weight))
        for phrase in secondary:
            self._phrases.append((self._prep(phrase), secondary_weight))
        # Fixed at construction: TermJoin scores once per popped element.
        self._term_weights: Dict[str, float] = {
            terms[0]: weight
            for terms, weight in self._phrases
            if len(terms) == 1
        }

    def _prep(self, phrase: str) -> List[str]:
        terms = tokenize_phrase(phrase)
        if self.stem:
            terms = [s_stem(t) for t in terms]
        return terms

    @property
    def phrases(self) -> List[Tuple[List[str], float]]:
        """``(terms, weight)`` pairs, primaries first."""
        return list(self._phrases)

    def term_weights(self) -> Dict[str, float]:
        """``{term: weight}`` for single-term phrases — the interface the
        TermJoin access method consumes (it scores per-term counters)."""
        return dict(self._term_weights)

    def score_words(self, words: Sequence[str]) -> float:
        if self.stem:
            words = [s_stem(w) for w in words]
        return sum(
            weight * count_phrase(words, terms)
            for terms, weight in self._phrases
        )

    def score_node(self, node: SNode) -> float:
        return self.score_words(node.subtree_words())

    def score_from_counts(self, counts: Mapping[str, int]) -> float:
        """Score from per-term counters (simple-mode TermJoin).  Only
        meaningful when every phrase is a single term."""
        weights = self._term_weights
        score = 0.0
        for term, count in counts.items():
            if term in weights:
                score += weights[term] * count
        return score


class TfIdfScorer(ScoringFunction):
    """tf·idf with subtree-length normalization:
    ``Σ_t tf(t)·idf(t) / sqrt(len)`` — the "more representative of what an
    IR system would do" computation §3.1 suggests, "taking into
    consideration the element size"."""

    def __init__(self, terms: Sequence[str], idf: Mapping[str, float]):
        self.terms = [t.lower() for t in terms]
        self.idf = dict(idf)

    def score_words(self, words: Sequence[str]) -> float:
        if not words:
            return 0.0
        norm = math.sqrt(len(words))
        score = 0.0
        for t in self.terms:
            tf = sum(1 for w in words if w == t)
            if tf:
                score += tf * self.idf.get(t, 1.0)
        return score / norm

    def score_node(self, node: SNode) -> float:
        return self.score_words(node.subtree_words())

    def score_from_counts(self, counts: Mapping[str, int],
                          subtree_len: int) -> float:
        """Counter-level entry point (needs the subtree word count that
        TermJoin also tracks)."""
        if not subtree_len:
            return 0.0
        score = sum(
            c * self.idf.get(t, 1.0)
            for t, c in counts.items() if t in self.terms and c
        )
        return score / math.sqrt(subtree_len)


class ProximityScorer(ScoringFunction):
    """The *complex* scoring function of §6.1.

    Components, exactly as described:

    1. a base weighted count per term (as in the simple function);
    2. a proximity bonus — for each adjacent pair of occurrences of
       *different* query terms (in document order), a bonus
       ``1 / (1 + d)`` where the distance ``d`` is the offset difference
       when both occurrences are in the same text node, or
       ``node_distance × (node gap)`` when they are in different text
       nodes;
    3. the total is multiplied by the ratio of non-zero-scored (relevant)
       children to total children (leaves use ratio 1).
    """

    def __init__(
        self,
        terms: Sequence[str],
        term_weight: float = 1.0,
        node_distance: int = 20,
    ):
        self.terms = [t.lower() for t in terms]
        self._term_set = set(self.terms)
        self.term_weight = term_weight
        self.node_distance = node_distance

    def term_weights(self) -> Dict[str, float]:
        return {t: self.term_weight for t in self.terms}

    # -- occurrence-level (TermJoin complex mode) ------------------------

    def score_from_occurrences(
        self,
        occurrences: Sequence[Occurrence],
        n_children: int,
        n_relevant_children: int,
    ) -> float:
        """Score from a document-ordered occurrence list plus child
        relevance statistics."""
        base = self.term_weight * len(occurrences)
        bonus = 0.0
        node_distance = self.node_distance
        rest = iter(occurrences)
        t1, n1, o1 = next(rest, (None, 0, 0))
        for t2, n2, o2 in rest:
            if t1 != t2:
                if n1 == n2:
                    d = abs(o2 - o1)
                else:
                    d = node_distance * abs(n2 - n1)
                bonus += 1.0 / (1.0 + d)
            t1, n1, o1 = t2, n2, o2
        score = base + bonus
        if n_children > 0:
            score *= n_relevant_children / n_children
        return score

    # -- tree-level (algebra oracle) -------------------------------------

    def collect_occurrences(self, node: SNode) -> List[Occurrence]:
        """Document-ordered query-term occurrences in the subtree, keyed
        by preorder node index."""
        occs: List[Occurrence] = []
        for idx, n in enumerate(node.preorder()):
            for off, w in enumerate(n.words):
                if w in self._term_set:
                    occs.append((w, idx, off))
        return occs

    def score_node(self, node: SNode) -> float:
        occs = self.collect_occurrences(node)
        n_children = len(node.children)
        n_relevant = sum(
            1 for c in node.children if self.collect_occurrences(c)
        )
        return self.score_from_occurrences(occs, n_children, n_relevant)

    def score_words(self, words: Sequence[str]) -> float:
        occs: List[Occurrence] = [
            (w, 0, i) for i, w in enumerate(words) if w in self._term_set
        ]
        return self.score_from_occurrences(occs, 0, 0)


# ----------------------------------------------------------------------
# Join scoring (Fig. 9: ScoreSim, ScoreBar)
# ----------------------------------------------------------------------

def score_sim(a: SNode, b: SNode) -> float:
    """``ScoreSim``: the number of distinct words occurring in both nodes'
    text (Fig. 9's ``count-same``)."""
    return float(len(set(a.subtree_words()) & set(b.subtree_words())))


def score_bar(score1: float, score2: float) -> float:
    """``ScoreBar``: ``score1 + score2`` if ``score2 > 0`` else 0 — the
    join score only counts when the content score is positive."""
    return score1 + score2 if score2 > 0.0 else 0.0


def cosine_similarity(a_words: Iterable[str], b_words: Iterable[str]) -> float:
    """Vector-space cosine similarity over raw term frequencies — the
    "real function would be more complex, for example using vector space
    cosine similarity" alternative mentioned in §3.1."""
    va: Dict[str, int] = {}
    vb: Dict[str, int] = {}
    for w in a_words:
        va[w] = va.get(w, 0) + 1
    for w in b_words:
        vb[w] = vb.get(w, 0) + 1
    if not va or not vb:
        return 0.0
    dot = sum(c * vb.get(t, 0) for t, c in va.items())
    if not dot:
        return 0.0
    na = math.sqrt(sum(c * c for c in va.values()))
    nb = math.sqrt(sum(c * c for c in vb.values()))
    return dot / (na * nb)
