"""Posting-list compression: delta + varint encoding.

A real disk-based system (the paper loads 500 MB of INEX into 5 GB of
TIMBER storage) keeps inverted lists compressed.  This module provides
the classic scheme — per-posting delta encoding of the sort key followed
by unsigned varints — behind the same :class:`~repro.index.inverted.
TermIndex` API, so every access method runs unchanged over a compressed
index (:meth:`XMLStore.enable_index_compression` flips it on).

Posting fields ``(doc, pos, node, offset)`` are encoded as:

- ``Δdoc``    — delta against the previous posting's doc id;
- ``Δpos``    — delta against the previous pos when the doc repeats,
  else the absolute pos (pos is strictly increasing within a doc);
- ``Δnode``   — zig-zag delta against the previous node id in the same
  doc (nodes are non-monotonic across pops, hence zig-zag);
- ``offset``  — absolute (small).

The codec reads and writes the one posting layout,
:class:`~repro.index.inverted.PostingColumns`: :func:`encode_postings`
walks the four columns in step, :func:`decode_postings` fills four
columns and never builds a per-posting record.  A blob starts with its
posting count, so ``frequency`` and ``uncompressed_bytes`` read that
header instead of decoding the list.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Dict, KeysView, Optional, Tuple, TYPE_CHECKING

from repro import obs as _obs
from repro.index.inverted import (
    POSTING_NOMINAL_BYTES,
    InvertedIndex,
    PostingColumns,
    PostingList,
    TermIndex,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.xmldb.store import XMLStore


# ----------------------------------------------------------------------
# Varint primitives
# ----------------------------------------------------------------------

def write_varint(value: int, out: bytearray) -> None:
    """Append an unsigned LEB128 varint."""
    if value < 0:
        raise ValueError("varint requires a non-negative value")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def read_varint(data: bytes, i: int) -> Tuple[int, int]:
    """Read an unsigned varint at offset ``i``; returns (value, next_i)."""
    result = 0
    shift = 0
    while True:
        byte = data[i]
        i += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, i
        shift += 7


def zigzag(value: int) -> int:
    """Map a signed int to unsigned (0, -1, 1, -2 → 0, 1, 2, 3)."""
    return (value << 1) ^ (value >> 63) if value >= 0 else ((-value) << 1) - 1


def unzigzag(value: int) -> int:
    """Inverse of :func:`zigzag`."""
    return (value >> 1) if not value & 1 else -((value + 1) >> 1)


# ----------------------------------------------------------------------
# Posting-list codec
# ----------------------------------------------------------------------

def encode_postings(postings: PostingColumns) -> bytes:
    """Encode (doc, pos)-sorted posting columns."""
    out = bytearray()
    write_varint(len(postings), out)
    prev_doc = 0
    prev_pos = 0
    prev_node = 0
    for doc, pos, node, offset in zip(postings.doc, postings.pos,
                                      postings.node, postings.offset):
        d_doc = doc - prev_doc
        write_varint(d_doc, out)
        if d_doc:
            prev_pos = 0
            prev_node = 0
        write_varint(pos - prev_pos, out)
        write_varint(zigzag(node - prev_node), out)
        write_varint(offset, out)
        prev_doc, prev_pos, prev_node = doc, pos, node
    return bytes(out)


def decode_postings(data: bytes) -> PostingColumns:
    """Decode :func:`encode_postings` output straight into columns."""
    count, i = read_varint(data, 0)
    # Every varint of the body first, then each column from its stride
    # of that flat stream.  The reader is inlined (most varints are one
    # byte): four read_varint calls and four appends per posting decode
    # a 10 000-posting list in 10 ms, this in 5.
    values = []
    push = values.append
    end = len(data)
    while i < end:
        byte = data[i]
        i += 1
        if byte & 0x80:
            value = byte & 0x7F
            shift = 7
            while True:
                byte = data[i]
                i += 1
                value |= (byte & 0x7F) << shift
                if not byte & 0x80:
                    break
                shift += 7
            push(value)
        else:
            push(byte)
    if len(values) != 4 * count:
        raise ValueError("posting blob does not hold its declared count")
    d_docs = values[0::4]
    poss = []
    nodes = []
    pos = 0
    node = 0
    for d_doc, d_pos, zz in zip(d_docs, values[1::4], values[2::4]):
        if d_doc:
            pos = 0
            node = 0
        pos += d_pos
        node += unzigzag(zz)
        poss.append(pos)
        nodes.append(node)
    return PostingColumns(accumulate(d_docs), poss, nodes, values[3::4])


# ----------------------------------------------------------------------
# Compressed index
# ----------------------------------------------------------------------

class CompressedInvertedIndex(TermIndex):
    """Drop-in replacement for :class:`InvertedIndex` that stores each
    posting list varint-compressed and decodes on access.

    ``postings`` returns a fully decoded :class:`PostingList` and always
    pays the decode — caching decoded lists is the job of the LRU layer
    above (:class:`repro.perf.postings.CachingIndex`, enabled via
    :meth:`XMLStore.enable_postings_cache`).
    """

    def __init__(self, blobs: Dict[str, bytes], n_documents: int):
        self._blobs = blobs
        self.n_documents = n_documents

    @classmethod
    def from_index(cls, index: InvertedIndex) -> "CompressedInvertedIndex":
        blobs = {
            term: encode_postings(index.postings(term).postings)
            for term in index.vocabulary()
        }
        return cls(blobs, index.n_documents)

    @classmethod
    def build(cls, store: "XMLStore") -> "CompressedInvertedIndex":
        return cls.from_index(InvertedIndex.build(store))

    def _fetch(self, term: str) -> Optional[PostingList]:
        rec = _obs.RECORDER
        if rec.enabled:
            rec.count("index.posting_fetches")
        blob = self._blobs.get(term)
        if blob is None:
            return None
        decoded = PostingList(term, decode_postings(blob))
        if rec.enabled:
            rec.count("index.posting_decodes")
            rec.count("index.bytes_read", len(blob))
            rec.count("index.postings_returned", len(decoded))
        return decoded

    def _count(self, term: str) -> int:
        blob = self._blobs.get(term)
        return read_varint(blob, 0)[0] if blob is not None else 0

    def vocabulary(self) -> KeysView[str]:
        return self._blobs.keys()

    # -- compression statistics --------------------------------------------

    def compressed_bytes(self) -> int:
        """Total bytes of all encoded lists."""
        return sum(len(b) for b in self._blobs.values())

    def uncompressed_bytes(self) -> int:
        """Size of a flat 4×4-byte-int representation, for the ratio."""
        return POSTING_NOMINAL_BYTES * sum(
            read_varint(b, 0)[0] for b in self._blobs.values()
        )

    def compression_ratio(self) -> float:
        """uncompressed / compressed (higher is better)."""
        compressed = self.compressed_bytes()
        return self.uncompressed_bytes() / compressed if compressed else 1.0
