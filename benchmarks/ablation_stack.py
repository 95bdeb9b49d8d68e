"""Ablation: the stack discipline in TermJoin.

TermJoin's stack lets each ancestor be visited exactly once, with
counters propagated child→parent on pop.  The ablated variant walks the
full ancestor chain of *every* occurrence into a hash map (no stack, no
sharing) — the strategy the composite plans are built on.  The gap grows
with term frequency and nesting depth.
"""

from typing import Dict, List, Sequence, Tuple

import pytest

from repro.access.results import ScoredElement
from repro.access.termjoin import TermJoin
from repro.core.scoring import WeightedCountScorer
from repro.xmldb.store import XMLStore


class NoStackTermJoin:
    """TermJoin without the stack: per-occurrence ancestor walks into a
    hash map keyed by node."""

    name = "NoStackTermJoin"

    def __init__(self, store: XMLStore, scorer):
        self.store = store
        self.scorer = scorer

    def run(self, terms: Sequence[str]) -> List[ScoredElement]:
        counts: Dict[Tuple[int, int], Dict[str, int]] = {}
        for term in terms:
            cols = self.store.index.postings(term).postings
            for doc_id, cur in zip(cols.doc, cols.node):
                doc = self.store.document(doc_id)
                while cur != -1:
                    node_counts = counts.setdefault((doc_id, cur), {})
                    node_counts[term] = node_counts.get(term, 0) + 1
                    cur = doc.parents[cur]
        return [
            ScoredElement(d, n, self.scorer.score_from_counts(c))
            for (d, n), c in counts.items()
        ]


FREQS = [500, 3000, 10000]


@pytest.mark.parametrize("freq", FREQS)
@pytest.mark.parametrize("variant", ["stack", "nostack"])
def test_stack_ablation(benchmark, corpus123, variant, freq):
    store, rows = corpus123
    row = next(r for r in rows["table1"] if r.label == freq)
    scorer = WeightedCountScorer([row.terms[0]], [row.terms[1]])
    method = (
        TermJoin(store, scorer) if variant == "stack"
        else NoStackTermJoin(store, scorer)
    )
    result = benchmark.pedantic(
        method.run, args=(list(row.terms),), rounds=5, iterations=1
    )
    assert result


def test_variants_agree(corpus123):
    """Sanity: the ablated variant computes identical scores."""
    store, rows = corpus123
    row = next(r for r in rows["table1"] if r.label == 500)
    scorer = WeightedCountScorer([row.terms[0]], [row.terms[1]])
    a = {(r.doc_id, r.node_id): r.score
         for r in TermJoin(store, scorer).run(list(row.terms))}
    b = {(r.doc_id, r.node_id): r.score
         for r in NoStackTermJoin(store, scorer).run(list(row.terms))}
    assert a == b
