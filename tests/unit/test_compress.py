"""Unit and property tests for the posting-list codec."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.inverted import PostingColumns
from repro.index.compress import (
    decode_postings,
    encode_postings,
    read_varint,
    unzigzag,
    write_varint,
    zigzag,
)


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


#: 14 bytes; pos 300 takes a two-byte varint, so some cuts fall inside
#: a varint and others between whole ones.
BLOB = encode_postings(columns([(0, 5, 1, 0), (0, 300, 2, 1), (1, 7, 3, 0)]))


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

    @pytest.mark.parametrize("cut", range(len(BLOB)))
    def test_truncated_blob_rejected(self, cut):
        # cut 0 is the empty blob; cut 7 ends inside pos 300's varint
        with pytest.raises(ValueError):
            decode_postings(BLOB[:cut])

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

