"""Unit tests for the inverted index and the structure index."""

import pytest

from repro.errors import UnknownTermError
from repro.index.inverted import PostingColumns
from repro.xmldb.store import XMLStore


@pytest.fixture()
def idx_store():
    return XMLStore.from_sources({
        "a.xml": "<a><b>red red green</b><c>red</c></a>",
        "b.xml": "<x>green <y>blue</y></x>",
    })


class TestInvertedIndex:
    def test_frequency(self, idx_store):
        idx = idx_store.index
        assert idx.frequency("red") == 3
        assert idx.frequency("green") == 2
        assert idx.frequency("blue") == 1
        assert idx.frequency("nope") == 0

    def test_postings_sorted_by_doc_pos(self, idx_store):
        cols = idx_store.index.postings("green").postings
        assert isinstance(cols, PostingColumns)
        assert list(cols) == sorted(cols)
        assert list(cols.doc) == [0, 1]

    def test_posting_fields(self, idx_store):
        pl = idx_store.index.postings("blue")
        ((doc_id, pos, node, offset),) = list(pl)
        doc = idx_store.document(doc_id)
        assert doc.tags[node] == "y"
        assert offset == 0
        assert doc.node(node).start < pos <= doc.node(node).end

    def test_columns_are_parallel_int_arrays(self, idx_store):
        cols = idx_store.index.postings("red").postings
        assert len(cols) == 3
        for column in (cols.doc, cols.pos, cols.node, cols.offset):
            assert column.typecode == "i" and len(column) == 3
        assert list(cols) == list(zip(cols.doc, cols.pos, cols.node,
                                      cols.offset))

    def test_offsets_within_node(self, idx_store):
        cols = idx_store.index.postings("red").postings
        b_offsets = [offset for doc, _pos, node, offset in cols
                     if doc == 0 and node == 1]
        assert b_offsets == [0, 1]

    def test_single_posting_term(self, idx_store):
        # one row id: the gather must still return columns, not scalars
        cols = idx_store.index.postings("blue").postings
        assert len(cols) == 1 and list(cols.doc) == [1]

    def test_unknown_term_lenient_and_strict(self, idx_store):
        assert len(idx_store.index.postings("zz")) == 0
        with pytest.raises(UnknownTermError):
            idx_store.index.postings("zz", strict=True)

    def test_contains(self, idx_store):
        assert "red" in idx_store.index
        assert "zz" not in idx_store.index

    def test_document_frequency_and_idf(self, idx_store):
        idx = idx_store.index
        assert idx.document_frequency("green") == 2
        assert idx.document_frequency("blue") == 1
        assert idx.idf("blue") > idx.idf("green") > 0

    def test_document_frequency_counted_once_from_doc_column(self,
                                                             idx_store):
        cols = idx_store.index.postings("green").postings
        assert cols.document_frequency() == 2
        cols.doc[1] = 0  # (never done outside a test)
        assert cols.document_frequency() == 2  # not recounted

    def test_index_keeps_a_terms_columns(self, idx_store):
        idx = idx_store.index
        assert idx.postings("red") is idx.postings("red")

    def test_element_counts(self, idx_store):
        counts = idx_store.index.element_counts("red")
        assert counts[(0, 1)] == 2
        assert counts[(0, 2)] == 1

    def test_for_document_slice(self, idx_store):
        cols = idx_store.index.postings("green").postings
        only_b = cols.for_document(1)
        assert len(only_b) == 1 and list(only_b.doc) == [1]
        assert len(cols.for_document(7)) == 0

    def test_terms_sorted_by_frequency(self, idx_store):
        pairs = idx_store.index.terms_sorted_by_frequency()
        assert pairs[0][0] == "red"
        freqs = [f for _t, f in pairs]
        assert freqs == sorted(freqs, reverse=True)

    def test_vocabulary(self, idx_store):
        assert set(idx_store.index.vocabulary()) == {"red", "green", "blue"}
        assert idx_store.index.n_terms == 3


class TestStructureIndex:
    def test_parent(self, idx_store):
        si = idx_store.structure
        assert si.parent(0, 1) == 0
        assert si.parent(0, 0) == -1

    def test_fanout(self, idx_store):
        si = idx_store.structure
        assert si.fanout(0, 0) == 2
        assert si.fanout(0, 1) == 0

    def test_parent_and_fanout(self, idx_store):
        si = idx_store.structure
        parent, fanout = si.parent_and_fanout(0, 1)
        assert (parent, fanout) == (0, 2)
        assert si.parent_and_fanout(0, 0) == (-1, 0)

    def test_all_elements_sorted(self, idx_store):
        refs = idx_store.structure.all_elements()
        keys = [(r[0], r[1]) for r in refs]
        assert keys == sorted(keys)
        assert len(refs) == idx_store.n_elements

    def test_tags(self, idx_store):
        tags = {
            idx_store.document(ref[0]).tags[ref[4]]
            for ref in idx_store.structure.all_elements()
        }
        assert tags == {"a", "b", "c", "x", "y"}


class TestConcurrentFirstFetch:
    """The plain index gathers a term's columns on its first fetch and
    keeps them; readers racing on that first fetch must all get the
    term's postings (the race may gather twice, never wrongly)."""

    def test_racing_first_fetches_agree(self):
        import sys
        import threading

        from repro.workload import CorpusSpec, generate_corpus

        spec = CorpusSpec(
            n_articles=6,
            planted_terms={"alpha": 60, "beta": 30, "solo": 1},
            seed=5,
        )
        terms = ["alpha", "beta", "solo", "missing"]
        reference = generate_corpus(spec).index
        want = {t: list(reference.postings(t)) for t in terms}
        assert len(want["alpha"]) == 60 and want["missing"] == []

        index = generate_corpus(spec).index  # nothing fetched yet
        n_workers = 8
        start = threading.Barrier(n_workers)
        wrong = []

        def reader():
            start.wait(timeout=10)
            for _ in range(50):
                for term in terms:
                    if list(index.postings(term)) != want[term]:
                        wrong.append(term)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=reader)
                       for _ in range(n_workers)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert wrong == []
