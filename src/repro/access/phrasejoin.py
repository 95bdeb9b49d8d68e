"""PhraseJoin: TermJoin's stack over PhraseFinder's phrase occurrences.

The paper's two score-generating access methods compose naturally: the
``ScoreFoo`` family scores an element by *phrase* occurrence counts over
its whole subtree, so an efficient plan first finds phrase occurrences
with PhraseFinder (offset verification during intersection, §5.1.2), then
scores every ancestor with TermJoin's single stack pass (§5.1.1) — one
"posting" per phrase occurrence, weighted per phrase.

A single-term phrase degenerates to plain TermJoin, so PhraseJoin is the
general score-generating method for ``ScoreFoo``-style weighted phrase
scoring, and the plan compiler lowers multi-word Score clauses onto it.

Semantics note: phrases match within one text node's direct text (the
standard IR behaviour PhraseFinder implements); a phrase spanning an
element boundary does not count.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro import obs as _obs
from repro.access.phrasefinder import PhraseFinder
from repro.access.results import ScoredColumns
from repro.access.termjoin import TermJoin, merge_runs
from repro.xmldb.store import XMLStore
from repro.xmldb.text import tokenize_phrase


class _PhraseCountScorer:
    """``Σ_i weight_i · count_i`` over the phrases that occur, added
    in phrase order (float addition order is part of the ranking)."""

    def __init__(self, weights: Sequence[float]) -> None:
        self.weights = weights

    def score_from_counts(self, counts: Dict[int, int]) -> float:
        weights = self.weights
        return sum(weights[pi] * counts[pi] for pi in sorted(counts))


class PhraseJoin:
    """Score every element whose subtree contains at least one occurrence
    of any query phrase: ``score = Σ_i weight_i · count_i(subtree)``."""

    name = "PhraseJoin"

    def __init__(
        self,
        store: XMLStore,
        phrases: Sequence[str],
        weights: Sequence[float],
    ):
        if len(phrases) != len(weights):
            raise ValueError("phrases and weights must align")
        self.store = store
        self.phrases = [tokenize_phrase(p) for p in phrases]
        self.weights = list(weights)
        self._finder = PhraseFinder(store)
        #: access-method counters of the most recent :meth:`run`
        #: (PhraseFinder's, summed over phrases, plus the join's own
        #: ``stack_pushes``/``stack_pops``/``elements_scored``).
        self.last_stats: Dict[str, int] = {}

    @classmethod
    def from_scorer(cls, store: XMLStore, scorer) -> "PhraseJoin":
        """Build from a :class:`~repro.core.scoring.WeightedCountScorer`
        (its phrase list and weights carry over verbatim)."""
        phrases = []
        weights = []
        for terms, weight in scorer.phrases:
            phrases.append(" ".join(terms))
            weights.append(weight)
        return cls(store, phrases, weights)

    def run(self, phrases: Sequence[str] = (),
            only_doc: Optional[int] = None) -> ScoredColumns:
        """Run the join.  ``phrases`` (if given) overrides the
        constructor's phrase list, keeping the constructor weights when
        the count matches (source-compatibility with the TermJoinScan
        operator, which passes its term list through).  ``only_doc``
        restricts the join to that document, as for
        :meth:`TermJoin.run <repro.access.termjoin.TermJoin.run>`."""
        phrase_lists = (
            [tokenize_phrase(p) for p in phrases] if phrases
            else self.phrases
        )
        weights = (
            self.weights if len(phrase_lists) == len(self.weights)
            else [1.0] * len(phrase_lists)
        )

        # Fetch: the per-phrase occurrence runs end to end, each
        # occurrence labelled with its phrase index.
        docs: List[int] = []
        poss: List[int] = []
        nodes: List[int] = []
        labels: List[int] = []
        runs = 0
        finder_totals: Dict[str, int] = {}
        for pi, terms in enumerate(phrase_lists):
            occs = self._finder.occurrences(terms, only_doc)
            if occs:
                runs += 1
                d, p, n, _offsets = zip(*occs)
                docs += d
                poss += p
                nodes += n
                labels += [pi] * len(occs)
            for key, value in self._finder.last_stats.items():
                finder_totals[key] = finder_totals.get(key, 0) + value
        if runs > 1:
            docs, poss, nodes, labels = merge_runs(docs, poss, nodes, labels)
        out = TermJoin(self.store, _PhraseCountScorer(weights)).stack_pass(
            docs, poss, nodes, labels)

        # pushes == pops == len(out): every pushed entry is popped once
        # and every pop emits one element.
        self.last_stats = dict(finder_totals)
        self.last_stats.update(
            stack_pushes=len(out), stack_pops=len(out),
            elements_scored=len(out),
        )
        rec = _obs.RECORDER
        if rec.enabled:
            rec.count("phrasejoin.runs")
            rec.count("phrasejoin.stack_pushes", len(out))
            rec.count("phrasejoin.stack_pops", len(out))
            rec.count("phrasejoin.elements_scored", len(out))
        return out
