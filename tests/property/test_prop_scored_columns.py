"""Generated-input differential for the columnar stack-pass result.

TermJoin, Enhanced TermJoin and PhraseJoin return
:class:`~repro.access.results.ScoredColumns`: parallel ``doc``/``node``
/``score`` columns that stand for a list of
:class:`~repro.access.results.ScoredElement`.

- On drawn columns, the sequence must behave exactly like that list:
  ``len``, every index (negative ones and both out-of-range ends
  included), slices, iteration, ``reversed``, ``in``, and ``==``/``!=``
  in both directions, against the list itself and against a list that
  differs in one row.
- On generated corpora, ``TermJoinScan`` reads the columns directly:
  ``> min_score`` compresses the score column and a ``StoredTree`` is
  built only for a surviving row.  Its rows must be the ones the scan
  produced when it filtered a ``ScoredElement`` list and wrapped each
  survivor; that path is kept below verbatim as the oracle.
"""

import math
from array import array

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.access.phrasejoin import PhraseJoin
from repro.access.results import ScoredColumns, ScoredElement
from repro.access.termjoin import EnhancedTermJoin, TermJoin
from repro.core.scoring import ProximityScorer, WeightedCountScorer
from repro.core.trees import StoredTree
from repro.engine import TermJoinScan
from repro.engine.base import execute

from .strategies import VOCAB, build_corpus, corpus_shapes

rows = st.lists(
    st.tuples(st.integers(0, 2**31 - 1), st.integers(0, 2**31 - 1),
              st.floats(allow_nan=False)),
    max_size=12,
)


def columns_of(triples):
    return ScoredColumns(array("i", [d for d, _n, _s in triples]),
                         array("i", [n for _d, n, _s in triples]),
                         [s for _d, _n, s in triples])


@given(triples=rows, data=st.data())
@settings(max_examples=200, deadline=None)
def test_columns_behave_as_the_record_list(triples, data):
    cols = columns_of(triples)
    records = [ScoredElement(*t) for t in triples]
    n = len(records)

    assert len(cols) == n
    assert list(cols) == records
    assert list(reversed(cols)) == records[::-1]
    for i in range(-n, n):
        assert cols[i] == records[i]
        assert repr(cols[i]) == repr(records[i])
    for i in (n, -n - 1):
        try:
            cols[i]
        except IndexError:
            pass
        else:
            raise AssertionError(f"index {i} of {n} rows did not raise")
    for _ in range(3):
        s = data.draw(st.slices(n), label="slice")
        assert cols[s] == records[s]
        assert list(cols[s]) == records[s]
    for r in records:
        assert r in cols
    assert ScoredElement(-1, 0, 0.0) not in cols
    assert repr(cols) == repr(records)

    assert cols == records and records == cols
    assert not (cols != records) and not (records != cols)
    assert cols == columns_of(triples)
    assert cols != tuple(records)
    assert cols != records + [ScoredElement(0, 0, 0.0)]
    if n:
        j = data.draw(st.integers(0, n - 1), label="row")
        d, node, s = triples[j]
        for changed in ((d + 1, node, s), (d, node + 1, s),
                        (d, node, -s if s else 1.0)):
            other = list(records)
            other[j] = ScoredElement(*changed)
            assert cols != other and other != cols
            assert not (cols == other) and not (other == cols)
        assert cols != records[:-1] and records[:-1] != cols


def reference_scan_rows(store, method, terms, min_score):
    """``TermJoinScan`` as it was over a list of records: filter by
    ``> min_score``, then wrap each survivor."""
    results = list(method.run(terms))
    if min_score is not None:
        results = [r for r in results if r.score > min_score]
    return [StoredTree(store.document(r.doc_id), r.node_id, r.score)
            for r in results]


def row_facts(trees):
    return [(type(t), t.doc, t.source, t.node_id, t.score, t.full)
            for t in trees]


def methods(store, words, weights):
    terms = list(dict.fromkeys(words))
    phrases = [" ".join(words[:2]), words[-1]]
    return [
        (TermJoin(store, WeightedCountScorer(terms[:1], terms[1:])), terms),
        (EnhancedTermJoin(store, ProximityScorer(terms), True), terms),
        (PhraseJoin(store, phrases, weights), phrases),
    ]


@given(shapes=corpus_shapes,
       words=st.lists(st.sampled_from(VOCAB), min_size=1, max_size=3),
       weights=st.lists(st.floats(0.1, 2.0), min_size=2, max_size=2),
       data=st.data())
@settings(max_examples=120, deadline=None)
def test_scan_rows_equal_the_record_path(shapes, words, weights, data):
    store = build_corpus(shapes)
    for method, terms in methods(store, words, weights):
        scores = method.run(terms).score
        bounds = [None]
        if scores:
            s = data.draw(st.sampled_from(scores), label="produced score")
            bounds += [s, math.nextafter(s, -math.inf)]
        for min_score in bounds:
            got = execute(TermJoinScan(store, terms, method, min_score))
            want = reference_scan_rows(store, method, terms, min_score)
            assert row_facts(got) == row_facts(want), (method.name,
                                                       min_score)
