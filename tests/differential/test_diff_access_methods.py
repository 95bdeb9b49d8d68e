"""Differential tests: independent implementations must agree exactly.

On seeded random corpora (multi-document, deterministic per seed) the
paper's redundant access paths are run against each other — TermJoin
against the Comp1/Comp2 composites and PhraseFinder against Comp3 — for
both the simple (weighted-count) and complex (proximity) scoring
functions.  Unlike the hypothesis property suite, these corpora are
fixed, multi-document, and larger, so a regression reproduces under the
same seed every time.
"""

import random

import pytest

from repro.access.composite import Comp1, Comp2, Comp3
from repro.access.phrasefinder import PhraseFinder
from repro.access.termjoin import EnhancedTermJoin, TermJoin
from repro.core.scoring import ProximityScorer, WeightedCountScorer
from repro.xmldb.store import XMLStore

from tests.conftest import build_random_document

pytestmark = pytest.mark.differential

SEEDS = [7, 21, 99, 1234]
TERMS = ["red", "green"]


def seeded_store(seed: int, n_docs: int = 3,
                 n_elements: int = 60) -> XMLStore:
    rng = random.Random(seed)
    store = XMLStore()
    for d in range(n_docs):
        store.add_document(build_random_document(
            rng, n_elements, doc_id=d, name=f"diff{d}.xml"
        ))
    return store


def by_node(results):
    return {(r.doc_id, r.node_id): r.score for r in results}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("complex_scoring", [False, True],
                         ids=["simple", "complex"])
def test_termjoin_equals_composites(seed, complex_scoring):
    store = seeded_store(seed)
    scorer = (
        ProximityScorer(TERMS) if complex_scoring
        else WeightedCountScorer([TERMS[0]], TERMS[1:])
    )
    reference = by_node(
        TermJoin(store, scorer, complex_scoring).run(list(TERMS))
    )
    assert reference, "seeded corpus must contain the terms"
    rivals = {
        "Comp1": Comp1(store, scorer, complex_scoring),
        "Comp2": Comp2(store, scorer, complex_scoring),
        "EnhTermJoin": EnhancedTermJoin(store, scorer, complex_scoring),
    }
    for name, method in rivals.items():
        got = by_node(method.run(list(TERMS)))
        assert got.keys() == reference.keys(), name
        for key in reference:
            assert got[key] == pytest.approx(reference[key]), (name, key)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("phrase", [["red", "green"], ["blue"]],
                         ids=["two-word", "one-word"])
def test_phrasefinder_equals_comp3(seed, phrase):
    store = seeded_store(seed)
    pf = [(m.doc_id, m.node_id, m.count)
          for m in PhraseFinder(store).run(phrase)]
    c3 = [(m.doc_id, m.node_id, m.count)
          for m in Comp3(store).run(phrase)]
    assert pf == c3  # identity, order included
