"""Positional inverted index over one columnar posting layout.

A posting says where one word occurrence is — ``doc``, ``pos``, ``node``,
``offset``:

- ``pos`` — global region position of the word occurrence; because words
  consume values of the same counter as element start/end keys, ``pos``
  falls strictly inside the region of every ancestor element.  TermJoin's
  merge pass is driven by this field.
- ``node`` — the element whose *direct* text contains the word.
- ``offset`` — word ordinal within that element's direct text.  PhraseFinder
  verifies phrase adjacency with ``same node ∧ offsets consecutive``.

**Layout.**  Postings are never boxed one by one: a set of postings is a
:class:`PostingColumns` — four parallel stdlib ``array('i')`` columns
sorted by ``(doc, pos)``.  That one type is what the index hands out
(:class:`PostingList` = term + columns), what the varint codec of
:mod:`repro.index.compress` encodes from and decodes into, and what
every reader slices.

:class:`InvertedIndex`, the one inverted index, stores the corpus as the
same four columns over *every* word in document order (filled per
document by ``array.extend``), plus one ascending array of row ids per
term — one ``append`` per word at build time.  The first
``postings(term)`` gathers the term's rows out of the word table into
its own columns and the index keeps them, so the build does not pay (a
random-access gather per field, about as much again as the scan itself)
for terms nobody asks about, and a term that is asked about pays once.

**Maintenance.**  The index is built by appending one document at a
time, and a store change updates it by that document's share:
:meth:`InvertedIndex.append` costs the new document's words, and
:meth:`InvertedIndex.remove` costs the removed document's words plus
the rows after them (one shift, so never more than a rebuild).  A kept
list the change makes stale is dropped and gathered again on its next
read; a list already handed out is never changed.

Terms are normalised once, where they enter a lookup, and the derived
lookups (``document_frequency``, ``idf``, ``element_counts``,
``terms_sorted_by_frequency``) exist once, over ``postings`` /
``frequency``.  An index lookup "at the very least returns identifiers of
XML elements in which this term occurs … but one can easily return more,
such as the number of occurrences" (§5.1);
:meth:`InvertedIndex.element_counts` is that enriched lookup, used by the
composite baselines.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import (
    Dict,
    Iterable,
    Iterator,
    KeysView,
    List,
    Optional,
    Sequence,
    Tuple,
    TYPE_CHECKING,
)

from repro import obs as _obs
from repro.errors import UnknownTermError

if TYPE_CHECKING:  # pragma: no cover
    from repro.xmldb.document import Document
    from repro.xmldb.store import XMLStore

#: Logical on-disk size of one posting record (four 32-bit fields) —
#: what ``index.bytes_read`` charges per posting returned.
POSTING_NOMINAL_BYTES = 16

#: Typecode of every posting column: the four fields (and row ids) are
#: bounded by what one in-memory store can hold, far below 2**31.
INT = "i"


class PostingColumns:
    """Postings as four parallel int columns sorted by ``(doc, pos)``.

    Hot paths read the columns (``cols.doc``, ``cols.node`` …) and slice
    them; iterating yields ``(doc, pos, node, offset)`` rows for the
    baselines and tests that want records.
    """

    __slots__ = ("doc", "pos", "node", "offset", "_n_documents")

    def __init__(
        self,
        doc: Iterable[int] = (),
        pos: Iterable[int] = (),
        node: Iterable[int] = (),
        offset: Iterable[int] = (),
    ):
        self.doc = array(INT, doc)
        self.pos = array(INT, pos)
        self.node = array(INT, node)
        self.offset = array(INT, offset)
        self._n_documents: Optional[int] = None

    def __len__(self) -> int:
        return len(self.doc)

    def __iter__(self) -> Iterator[Tuple[int, int, int, int]]:
        return zip(self.doc, self.pos, self.node, self.offset)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PostingColumns):
            return NotImplemented
        return (self.doc == other.doc and self.pos == other.pos
                and self.node == other.node and self.offset == other.offset)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"PostingColumns({list(self)!r})"

    def take(self, rows: Sequence[int]) -> "PostingColumns":
        """The postings at ``rows`` (ascending row ids), gathered column
        by column."""
        if len(rows) == 1:  # itemgetter with one index returns a scalar
            pick = itemgetter(slice(rows[0], rows[0] + 1))
        else:
            pick = itemgetter(*rows)
        return PostingColumns(pick(self.doc), pick(self.pos),
                              pick(self.node), pick(self.offset))

    def for_document(self, doc_id: int) -> "PostingColumns":
        """Postings restricted to one document (a contiguous slice)."""
        lo = bisect_left(self.doc, doc_id)
        hi = bisect_left(self.doc, doc_id + 1)
        return PostingColumns(self.doc[lo:hi], self.pos[lo:hi],
                              self.node[lo:hi], self.offset[lo:hi])

    def document_frequency(self) -> int:
        """Number of distinct documents — from the doc column alone,
        counted once."""
        if self._n_documents is None:
            self._n_documents = len(set(self.doc))
        return self._n_documents


@dataclass
class PostingList:
    """A term and its postings."""

    term: str
    postings: PostingColumns

    @property
    def frequency(self) -> int:
        """Total number of occurrences of the term in the corpus."""
        return len(self.postings)

    @property
    def document_frequency(self) -> int:
        """Number of distinct documents containing the term."""
        return self.postings.document_frequency()

    def __iter__(self) -> Iterator[Tuple[int, int, int, int]]:
        return iter(self.postings)

    def __len__(self) -> int:
        return len(self.postings)


class InvertedIndex:
    """The corpus-wide positional inverted index: the word table in
    document order plus, per term, the ascending row ids of its words.

    Every lookup normalises the term once — index terms are lowercase
    (:mod:`repro.xmldb.text`), so ``postings("XML")`` and
    ``postings("xml")`` are the same lookup for every reader.
    """

    def __init__(self, table: PostingColumns, rows: Dict[str, array],
                 n_documents: int):
        self._table = table
        self._rows = rows
        #: a term's rows gathered into columns, the first time it is read
        self._lists: Dict[str, PostingList] = {}
        self.n_documents = n_documents

    @classmethod
    def build(cls, store: "XMLStore") -> "InvertedIndex":
        """Build the index by one scan over every document's word table."""
        from repro.resilience import faultinject as _fi

        _fi.INJECTOR.fire("index.build", n_documents=store.n_documents)
        index = cls(PostingColumns(), {}, n_documents=0)
        for doc in store.documents():
            index.append(doc)
        return index

    def append(self, doc: "Document") -> None:
        """Add the words of ``doc``, the store's new last document: its
        rows go after every existing row, so appending costs the
        document's own words."""
        table, rows = self._table, self._rows
        terms = doc.word_terms
        base = len(table)
        table.doc.extend(array(INT, (doc.doc_id,)) * len(terms))
        table.pos.extend(doc.word_pos)
        table.node.extend(doc.word_node)
        table.offset.extend(doc.word_offset)
        # Documents arrive in doc_id order and word tables are in
        # ascending pos, so row ids ascend with (doc, pos) and every
        # term's rows stay sorted.
        for row, term in enumerate(terms, base):
            try:
                rows[term].append(row)
            except KeyError:
                rows[term] = array(INT, (row,))
        if self._lists:
            for term in self._lists.keys() & set(terms):
                del self._lists[term]
        self.n_documents += 1

    def remove(self, doc_id: int, doc: "Document") -> None:
        """Delete the words of ``doc``, stored under ``doc_id``, and
        renumber the later documents down by one as the store does.

        Costs the document's own words plus the rows after them: the
        removed range is cut out of the table and of each of its terms'
        row arrays, and only the rows that follow it are shifted."""
        table, rows = self._table, self._rows
        lo = bisect_left(table.doc, doc_id)
        hi = bisect_left(table.doc, doc_id + 1, lo)
        n_after = len(table) - hi
        for col in (table.doc, table.pos, table.node, table.offset):
            del col[lo:hi]
        # The doc column after the cut is one constant run per later
        # document: rewrite each run at its new id.
        start, col = lo, table.doc
        for later in range(doc_id + 1, self.n_documents):
            end = bisect_left(col, later + 1, start)
            col[start:end] = array(INT, (later - 1,)) * (end - start)
            start = end
        width = hi - lo
        for term in set(doc.word_terms):
            term_rows = rows[term]
            i = bisect_left(term_rows, lo)
            del term_rows[i:bisect_left(term_rows, hi, i)]
            if not term_rows:
                del rows[term]
        if width and n_after:
            for term_rows in rows.values():
                i = bisect_left(term_rows, lo)
                if i < len(term_rows):
                    term_rows[i:] = array(
                        INT, [r - width for r in term_rows[i:]])
        # A kept list is stale if it reaches the removed document or a
        # renumbered one; the lists handed out are never changed.
        for term in [t for t, pl in self._lists.items()
                     if pl.postings.doc[-1] >= doc_id]:
            del self._lists[term]
        self.n_documents -= 1

    def vocabulary(self) -> KeysView[str]:
        """All indexed terms."""
        return self._rows.keys()

    def postings(self, term: str, strict: bool = False) -> PostingList:
        """Posting list for ``term``.  Unknown terms yield an empty list
        unless ``strict`` is set."""
        term = term.lower()
        pl = self._lists.get(term)
        if pl is None:
            rows = self._rows.get(term)
            if rows is not None:
                # Two readers racing here gather the same columns twice;
                # either result is the list.
                pl = self._lists[term] = PostingList(
                    term, self._table.take(rows))
        rec = _obs.RECORDER
        if rec.enabled:
            n = len(pl) if pl is not None else 0
            rec.count("index.posting_fetches")
            rec.count("index.postings_returned", n)
            rec.count("index.bytes_read", n * POSTING_NOMINAL_BYTES)
        if pl is None:
            if strict:
                raise UnknownTermError(f"term {term!r} not in index")
            pl = PostingList(term, PostingColumns())
        return pl

    def __contains__(self, term: str) -> bool:
        return term.lower() in self._rows

    @property
    def n_terms(self) -> int:
        return len(self._rows)

    def frequency(self, term: str) -> int:
        """Corpus frequency of ``term``, read without fetching its list."""
        rows = self._rows.get(term.lower())
        return len(rows) if rows is not None else 0

    def document_frequency(self, term: str) -> int:
        """Number of documents containing ``term``."""
        return self.postings(term).document_frequency

    def idf(self, term: str) -> float:
        """Smoothed inverse document frequency:
        ``log((N + 1) / (df + 1)) + 1``; always positive."""
        df = self.document_frequency(term)
        return math.log((self.n_documents + 1) / (df + 1)) + 1.0

    def element_counts(self, term: str) -> Dict[Tuple[int, int], int]:
        """``{(doc_id, node_id): occurrence count}`` for the elements whose
        *direct* text contains ``term`` — the enriched index lookup of
        §5.1 that seeds score generation in the composite plans."""
        cols = self.postings(term).postings
        return dict(Counter(zip(cols.doc, cols.node)))

    def terms_sorted_by_frequency(self) -> List[Tuple[str, int]]:
        """``(term, frequency)`` pairs, most frequent first (workload
        selection helper)."""
        pairs = [(t, len(rows)) for t, rows in self._rows.items()]
        pairs.sort(key=lambda x: (-x[1], x[0]))
        return pairs
