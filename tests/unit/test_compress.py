"""Unit and property tests for posting-list compression."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import UnknownTermError
from repro.index.inverted import PostingColumns
from repro.index.compress import (
    CompressedInvertedIndex,
    decode_postings,
    encode_postings,
    read_varint,
    unzigzag,
    write_varint,
    zigzag,
)
from repro.xmldb.store import XMLStore


class TestVarint:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2**20, 2**40])
    def test_roundtrip(self, value):
        buf = bytearray()
        write_varint(value, buf)
        got, i = read_varint(bytes(buf), 0)
        assert got == value and i == len(buf)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            write_varint(-1, bytearray())

    def test_small_values_one_byte(self):
        buf = bytearray()
        write_varint(100, buf)
        assert len(buf) == 1

    @given(st.integers(min_value=-10**9, max_value=10**9))
    @settings(max_examples=100)
    def test_zigzag_roundtrip(self, v):
        assert unzigzag(zigzag(v)) == v
        assert zigzag(v) >= 0


def columns(rows):
    """Posting rows ``(doc, pos, node, offset)`` as columns."""
    return PostingColumns(*zip(*rows)) if rows else PostingColumns()


class TestPostingCodec:
    def test_roundtrip_simple(self):
        postings = columns([(0, 3, 1, 0), (0, 7, 2, 1), (1, 2, 0, 0)])
        decoded = decode_postings(encode_postings(postings))
        assert isinstance(decoded, PostingColumns)
        assert decoded == postings
        assert list(decoded.node) == [1, 2, 0]

    def test_empty(self):
        decoded = decode_postings(encode_postings(PostingColumns()))
        assert decoded == PostingColumns() and len(decoded) == 0

    def test_truncated_blob_rejected(self):
        blob = encode_postings(columns([(0, 3, 1, 0), (0, 7, 2, 1)]))
        with pytest.raises(ValueError):
            decode_postings(blob[:-1])

    @given(st.lists(st.tuples(
        st.integers(min_value=0, max_value=5),     # doc
        st.integers(min_value=1, max_value=10000),  # pos
        st.integers(min_value=0, max_value=500),   # node
        st.integers(min_value=0, max_value=50),    # offset
    ), max_size=80))
    @settings(max_examples=100)
    def test_roundtrip_random(self, raw):
        # enforce the (doc, pos)-sorted invariant with unique pos per doc
        seen = set()
        postings = []
        for doc, pos, node, offset in sorted(raw):
            if (doc, pos) in seen:
                continue
            seen.add((doc, pos))
            postings.append((doc, pos, node, offset))
        decoded = decode_postings(encode_postings(columns(postings)))
        assert list(decoded) == postings

    def test_compresses_real_lists(self, small_corpus):
        idx = small_corpus.index
        pl = idx.postings("alpha").postings
        blob = encode_postings(pl)
        assert len(blob) < len(pl) * 16


class TestCompressedIndex:
    def test_api_parity(self, small_corpus):
        plain = small_corpus.index
        comp = CompressedInvertedIndex.from_index(plain)
        for term in ("alpha", "beta", "solo", "zz-missing"):
            assert comp.postings(term).postings == \
                plain.postings(term).postings
            assert comp.frequency(term) == plain.frequency(term)
            assert comp.document_frequency(term) == \
                plain.document_frequency(term)
        assert comp.n_terms == plain.n_terms
        assert set(comp.vocabulary()) == set(plain.vocabulary())
        assert comp.idf("alpha") == plain.idf("alpha")
        assert comp.element_counts("alpha") == plain.element_counts("alpha")
        assert comp.terms_sorted_by_frequency()[:5] == \
            plain.terms_sorted_by_frequency()[:5]

    def test_counts_come_from_the_blob_header(self, small_corpus,
                                              monkeypatch):
        """``frequency`` / ``uncompressed_bytes`` /
        ``terms_sorted_by_frequency`` read each blob's count header;
        none of them decodes a posting."""
        import repro.index.compress as compress

        plain = small_corpus.index
        comp = CompressedInvertedIndex.from_index(plain)

        def no_decode(blob):
            raise AssertionError("decoded a list to count it")

        monkeypatch.setattr(compress, "decode_postings", no_decode)
        assert comp.frequency("alpha") == plain.frequency("alpha") == 40
        assert comp.frequency("zz-missing") == 0
        assert comp.uncompressed_bytes() == 16 * sum(
            plain.frequency(t) for t in plain.vocabulary())
        assert comp.terms_sorted_by_frequency() == \
            plain.terms_sorted_by_frequency()

    def test_strict_unknown_term(self, small_corpus):
        comp = CompressedInvertedIndex.from_index(small_corpus.index)
        with pytest.raises(UnknownTermError):
            comp.postings("nope", strict=True)

    def test_compression_ratio_positive(self, small_corpus):
        comp = CompressedInvertedIndex.from_index(small_corpus.index)
        assert comp.compression_ratio() > 2.0

    def test_store_flag_swaps_implementation(self):
        store = XMLStore.from_sources({"a.xml": "<a>x y x</a>"})
        store.enable_index_compression()
        assert isinstance(store.index, CompressedInvertedIndex)
        store.enable_index_compression(False)
        from repro.index.inverted import InvertedIndex

        assert isinstance(store.index, InvertedIndex)


class TestAccessMethodsOverCompressedIndex:
    def test_termjoin_identical(self, small_corpus):
        from repro.access.termjoin import TermJoin
        from repro.core.scoring import WeightedCountScorer

        scorer = WeightedCountScorer(["alpha"], ["beta"])
        plain = {
            (r.doc_id, r.node_id): r.score
            for r in TermJoin(small_corpus, scorer)
            .run(["alpha", "beta"])
        }
        small_corpus.enable_index_compression()
        try:
            comp = {
                (r.doc_id, r.node_id): r.score
                for r in TermJoin(small_corpus, scorer)
                .run(["alpha", "beta"])
            }
        finally:
            small_corpus.enable_index_compression(False)
        assert comp == plain

    def test_phrasefinder_identical(self, small_corpus):
        from repro.access.phrasefinder import PhraseFinder

        plain = [
            (m.doc_id, m.node_id, m.count)
            for m in PhraseFinder(small_corpus).run(["px", "py"])
        ]
        small_corpus.enable_index_compression()
        try:
            comp = [
                (m.doc_id, m.node_id, m.count)
                for m in PhraseFinder(small_corpus).run(["px", "py"])
            ]
        finally:
            small_corpus.enable_index_compression(False)
        assert comp == plain
