"""Generated-input differential for the columnar posting kernel.

For Hypothesis-generated multi-document corpora with trailing mixed
content, query terms the corpus does not contain, and 1–7 query terms,
the redundant ways of computing one answer must agree:

- TermJoin ≡ Comp1 (simple scoring);
- TermJoin ≡ EnhancedTermJoin ≡ Generalized Meet (complex scoring);
- PhraseFinder ≡ Comp3;
- the plain, the varint-compressed and the postings-cached index,
  under every method above.

Scores agree to 1e-9; order is identical wherever both sides define the
same one (TermJoin's variants and the three index kinds pop in the same
order, PhraseFinder and Comp3 both answer in document order; Comp1 and
Meet order by key and by level, so they are compared by element).  The
codec round-trips every posting list into columns, and the kernel's
counters obey ``pushes == pops == len(out)`` and
``postings_scanned == Σ frequency``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.access.composite import Comp1, Comp3
from repro.access.phrasefinder import PhraseFinder
from repro.access.termjoin import EnhancedTermJoin, TermJoin
from repro.core.scoring import ProximityScorer, WeightedCountScorer
from repro.index.compress import decode_postings, encode_postings
from repro.index.inverted import PostingColumns
from repro.joins.meet import generalized_meet

from .strategies import VOCAB, build_corpus, corpus_shapes

ABSENT = ["absent", "nowhere"]
query_terms = st.lists(st.sampled_from(VOCAB + ABSENT),
                       min_size=1, max_size=7, unique=True)
phrases = st.lists(st.sampled_from(VOCAB + ABSENT[:1]),
                   min_size=1, max_size=3)


def rows(results):
    """(doc, node, score) in answer order."""
    return [(r.doc_id, r.node_id, r.score) for r in results]


def assert_same_rows(got, want, what):
    """Same elements in the same order, scores to 1e-9."""
    assert [r[:2] for r in got] == [r[:2] for r in want], what
    for (_, _, a), (_, _, b) in zip(got, want):
        assert a == pytest.approx(b, rel=1e-9, abs=1e-9), what


def assert_same_elements(got, want, what):
    """Same elements with the same scores, whatever the order."""
    assert_same_rows(sorted(got), sorted(want), what)


def index_variants(shapes):
    """The same corpus behind the plain, the compressed and the
    postings-cached index."""
    plain = build_corpus(shapes)
    compressed = build_corpus(shapes)
    compressed.enable_index_compression()
    cached = build_corpus(shapes)
    cached.enable_postings_cache(capacity=64)
    return plain, compressed, cached


@given(corpus_shapes, query_terms)
@settings(max_examples=60, deadline=None)
def test_simple_termjoin_equals_comp1_on_every_index(shapes, terms):
    scorer = WeightedCountScorer([terms[0]], terms[1:])
    plain, *others = index_variants(shapes)
    method = TermJoin(plain, scorer)
    reference = rows(method.run(terms))
    stats = method.last_stats
    assert (stats["stack_pushes"] == stats["stack_pops"]
            == stats["elements_scored"] == len(reference))
    assert stats["postings_scanned"] == sum(
        plain.index.frequency(t) for t in terms)
    assert_same_elements(rows(Comp1(plain, scorer).run(terms)),
                         reference, "Comp1")
    for store in others:
        assert_same_rows(rows(TermJoin(store, scorer).run(terms)),
                         reference, type(store.index).__name__)


@given(corpus_shapes, query_terms)
@settings(max_examples=60, deadline=None)
def test_complex_termjoin_variants_and_meet_agree(shapes, terms):
    scorer = ProximityScorer(terms)
    plain, *others = index_variants(shapes)
    reference = rows(TermJoin(plain, scorer, True).run(terms))
    assert_same_rows(
        rows(EnhancedTermJoin(plain, scorer, True).run(terms)),
        reference, "EnhancedTermJoin")
    assert_same_elements(
        rows(generalized_meet(plain, terms, scorer, True)),
        reference, "Generalized Meet")
    for store in others:
        for cls in (TermJoin, EnhancedTermJoin):
            assert_same_rows(rows(cls(store, scorer, True).run(terms)),
                             reference,
                             (cls.name, type(store.index).__name__))


@given(corpus_shapes, phrases)
@settings(max_examples=60, deadline=None)
def test_phrasefinder_equals_comp3_on_every_index(shapes, phrase):
    plain, *others = index_variants(shapes)
    reference = PhraseFinder(plain).run(phrase)
    assert Comp3(plain).run(phrase) == reference
    for store in others:
        assert PhraseFinder(store).run(phrase) == reference, \
            type(store.index).__name__
        assert Comp3(store).run(phrase) == reference


@given(corpus_shapes)
@settings(max_examples=60, deadline=None)
def test_codec_round_trips_every_list_into_columns(shapes):
    index = build_corpus(shapes).index
    for term in list(index.vocabulary()) + ABSENT:
        cols = index.postings(term).postings
        decoded = decode_postings(encode_postings(cols))
        assert isinstance(decoded, PostingColumns)
        assert decoded == cols
        assert list(zip(decoded.doc, decoded.pos)) == sorted(
            zip(cols.doc, cols.pos))
