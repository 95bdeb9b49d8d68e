"""NEXI evaluation on the TIX machinery.

Pipeline:

1. **Structure and scoring, one pass per step**: step *i* of the tag
   path walks each document's tag column (every element for ``*``) and
   keeps an element only if a strict ancestor — found by walking
   ``doc.parents`` — was kept by step *i-1*.  The element's partial
   score is the best such ancestor's plus its own predicate score,
   added in step order; an element whose predicate scores 0 is dropped.
   The last step's survivors are the targets.
2. **Relevance**: every step's ``about`` predicate scores the bound
   element — the clause's relative path descends from it, and the terms
   are scored over subtree text with the paper's weighted phrase counts
   (first phrase 0.8, the rest 0.6, matching ScoreFoo).  A relative path
   matching several descendants contributes the best one.
3. **Combination**: ``and`` sums its operands but zeroes out when any
   operand is zero (strict conjunctive filtering with graded scores);
   ``or`` takes the max.  A path match's score is the sum over all its
   steps' predicate scores; a *target* element's final score is the max
   over the path matches that end at it.  Step 1 computes exactly that
   without enumerating the matches: rounded addition is monotone, so
   taking the best ancestor first and then adding equals adding along
   every match and then taking the best.
4. **Ranking**: descending score (a purely structural query returns
   its targets unscored, in document order), optional top-k.

NEXI is an offline library front end: it is not served, guarded or
cached.  These combination choices are documented ones among NEXI's
deliberately "vague" interpretations; they are the common strict-CAS
reading.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.scoring import WeightedCountScorer
from repro.nexi.ast import AboutClause, NexiPath, NexiStep, Predicate
from repro.nexi.parser import parse_nexi
from repro.xmldb.document import NO_PARENT, Document
from repro.xmldb.store import XMLStore


@dataclass(frozen=True)
class NexiHit:
    """One ranked retrieval unit."""

    doc_id: int
    node_id: int
    score: float


def _about_scorer(phrases: Sequence[str]) -> WeightedCountScorer:
    """The paper's ScoreFoo weighting applied to a NEXI term list: the
    first phrase is primary (0.8), the rest secondary (0.6)."""
    return WeightedCountScorer(
        primary=[phrases[0]], secondary=list(phrases[1:])
    )


class NexiEvaluator:
    """Evaluates parsed NEXI queries against one store."""

    def __init__(self, store: XMLStore):
        self.store = store
        self._scorers: Dict[int, WeightedCountScorer] = {}

    # ------------------------------------------------------------------
    # Relevance
    # ------------------------------------------------------------------

    def _relative_nodes(self, doc: Document, node_id: int,
                        relative: Tuple[str, ...]) -> List[int]:
        """Elements reached by descending ``relative`` tags from
        ``node_id`` (any depth per step, as NEXI's ``.//`` means)."""
        current = [node_id]
        for tag in relative:
            nxt: List[int] = []
            for nid in current:
                nxt.extend(
                    d for d in doc.descendants(nid)
                    if doc.tags[d] == tag
                )
            current = nxt
        return current

    def score_about(self, clause: AboutClause, doc: Document,
                    node_id: int) -> float:
        scorer = self._scorers.get(id(clause))
        if scorer is None:
            scorer = _about_scorer(clause.phrases)
            self._scorers[id(clause)] = scorer
        best = 0.0
        for target in self._relative_nodes(doc, node_id, clause.relative):
            s = scorer.score_words(doc.subtree_words(target))
            if s > best:
                best = s
        return best

    def score_predicate(self, predicate: Predicate, doc: Document,
                        node_id: int) -> float:
        if isinstance(predicate, AboutClause):
            return self.score_about(predicate, doc, node_id)
        scores = [
            self.score_predicate(op, doc, node_id)
            for op in predicate.operands
        ]
        if predicate.op == "and":
            return sum(scores) if all(s > 0 for s in scores) else 0.0
        return max(scores)

    # ------------------------------------------------------------------
    # Full query
    # ------------------------------------------------------------------

    def _target_scores(self, doc: Document,
                       steps: Sequence[NexiStep]) -> Dict[int, float]:
        """One pass per step over ``doc``'s columns: step *i* keeps each
        element whose tag matches (any element for ``*``) and that has a
        strict ancestor kept by step *i-1*, at the best such ancestor's
        partial score plus its own predicate score.  An element whose
        predicate scores <= 0 is dropped.  The last step's dict maps each
        target to its best path-match score."""
        tags = doc.tags
        parents = doc.parents
        prev: Optional[Dict[int, float]] = None
        kept: Dict[int, float] = {}
        for step in steps:
            kept = {}
            candidates = (
                range(len(tags)) if step.tag == "*"
                else doc.find_by_tag(step.tag)
            )
            for node_id in candidates:
                score = 0.0
                if prev is not None:
                    best: Optional[float] = None
                    anc = parents[node_id]
                    while anc != NO_PARENT:
                        up = prev.get(anc)
                        if up is not None and (best is None or up > best):
                            best = up
                        anc = parents[anc]
                    if best is None:
                        continue
                    score = best
                if step.predicate is not None:
                    s = self.score_predicate(step.predicate, doc, node_id)
                    if s <= 0.0:
                        continue
                    score += s
                kept[node_id] = score
            if not kept:
                break
            prev = kept
        return kept

    def evaluate(self, query: NexiPath,
                 top_k: Optional[int] = None) -> List[NexiHit]:
        if top_k is not None and (
                isinstance(top_k, bool) or not isinstance(top_k, int)
                or top_k <= 0):
            raise ValueError(
                f"top_k must be None or a positive int, got {top_k!r}"
            )
        hits = [
            NexiHit(doc.doc_id, node_id, score)
            for doc in self.store.documents()
            for node_id, score in self._target_scores(
                doc, query.steps).items()
        ]
        if all(step.predicate is None for step in query.steps):
            # Purely structural query: every target matches, unranked.
            hits.sort(key=lambda h: (h.doc_id, h.node_id))
        else:
            hits.sort(key=lambda h: (-h.score, h.doc_id, h.node_id))
        return hits[:top_k]


def evaluate_nexi(store: XMLStore, query: NexiPath,
                  top_k: Optional[int] = None) -> List[NexiHit]:
    """Evaluate a parsed NEXI query."""
    return NexiEvaluator(store).evaluate(query, top_k)


def run_nexi(store: XMLStore, source: str,
             top_k: Optional[int] = None) -> List[NexiHit]:
    """Parse and evaluate a NEXI query string."""
    return evaluate_nexi(store, parse_nexi(source), top_k)
