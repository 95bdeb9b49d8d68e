"""Generated-input property: restricting an access method to one
document changes nothing but which rows it reads.

The compiled plan hands the For path's document id to the scan's access
method.  For every document ``d`` of a generated corpus, the restricted
run must return exactly the unrestricted run's rows whose document is
``d`` — the same rows, in the same order, with the same floats — for
TermJoin (simple and complex scoring), Enhanced TermJoin, PhraseJoin
and ``PhraseFinder.occurrences``.  This holds because the stack pass
empties its stack at every document change and the scorers read only
subtree counts or occurrences.

A restricted run must also read only ``d``'s postings: its
``postings_scanned`` is at most (for TermJoin exactly) the number of
postings its terms have in ``d``.  Restricting only some terms' postings
returns the right rows for PhraseFinder, whose chains start at the first
term, but reads the corpus; the counter catches it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.access.phrasefinder import PhraseFinder
from repro.access.phrasejoin import PhraseJoin
from repro.access.termjoin import EnhancedTermJoin, TermJoin
from repro.core.scoring import ProximityScorer, WeightedCountScorer

from .strategies import VOCAB, build_corpus, mixed_doc_shapes

corpora = st.lists(mixed_doc_shapes, min_size=2, max_size=4)
words = st.lists(st.sampled_from(VOCAB), min_size=1, max_size=3)
phrases = st.lists(
    st.lists(st.sampled_from(VOCAB), min_size=1, max_size=2)
    .map(" ".join),
    min_size=1, max_size=3,
)


def rows(columns):
    return list(zip(columns.doc, columns.node, columns.score))


def postings_in(store, terms, d):
    return sum(len(store.index.postings(t).postings.for_document(d))
               for t in terms)


def methods(store, terms):
    primary, secondary = terms[:1], terms[1:]
    yield "TermJoin", TermJoin(store, WeightedCountScorer(primary,
                                                          secondary))
    yield "TermJoin-complex", TermJoin(store, ProximityScorer(terms),
                                       complex_scoring=True)
    yield "EnhancedTermJoin", EnhancedTermJoin(
        store, ProximityScorer(terms), complex_scoring=True)


@given(shapes=corpora, terms=words)
@settings(max_examples=80, deadline=None)
def test_termjoin_restricted_is_the_documents_run(shapes, terms):
    store = build_corpus(shapes)
    for label, method in methods(store, terms):
        everything = rows(method.run(terms))
        for d in range(store.n_documents):
            want = [row for row in everything if row[0] == d]
            assert rows(method.run(terms, d)) == want, (label, d)
            assert method.last_stats["postings_scanned"] == postings_in(
                store, dict.fromkeys(terms), d), (label, d)


@given(shapes=corpora, items=phrases,
       weights=st.lists(st.floats(0.1, 2.0), min_size=3, max_size=3))
@settings(max_examples=80, deadline=None)
def test_phrasejoin_restricted_is_the_documents_run(shapes, items,
                                                    weights):
    store = build_corpus(shapes)
    join = PhraseJoin(store, items, weights[:len(items)])
    everything = rows(join.run())
    for d in range(store.n_documents):
        want = [row for row in everything if row[0] == d]
        assert rows(join.run((), d)) == want, d
        assert join.last_stats["postings_scanned"] <= sum(
            postings_in(store, item.split(), d) for item in items), d


@given(shapes=corpora, phrase=st.lists(st.sampled_from(VOCAB),
                                       min_size=1, max_size=3))
@settings(max_examples=80, deadline=None)
def test_phrasefinder_restricted_is_the_documents_occurrences(shapes,
                                                              phrase):
    store = build_corpus(shapes)
    finder = PhraseFinder(store)
    everything = finder.occurrences(phrase)
    for d in range(store.n_documents):
        want = [occ for occ in everything if occ.doc_id == d]
        assert finder.occurrences(phrase, d) == want, d
        assert finder.last_stats["postings_scanned"] <= postings_in(
            store, phrase, d), d
