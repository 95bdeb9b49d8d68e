"""PhraseFinder (§5.1.2).

Verifies phrase occurrence *during* the posting-list intersection using
the word-offset information kept in the index: an element contains the
phrase ``t1 t2 … tk`` iff its direct text has an occurrence of ``t1`` at
offset ``o`` and of each ``t_i`` at offset ``o+i-1`` — no database access,
no text re-scan.

Counts of phrase occurrences are turned into scores via a pluggable
per-count weight (the paper: "counts of phrase occurrences are then used
to generate appropriate score values").
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro import obs as _obs
from repro.resilience import guard as _resguard
from repro.access.results import PhraseMatch
from repro.xmldb.store import XMLStore


class PhraseOccurrence(NamedTuple):
    """One phrase occurrence: where the phrase *starts*."""

    doc_id: int
    pos: int       # region position of the first word
    node_id: int   # element whose direct text holds the phrase
    offset: int    # word offset of the first word within that element


class PhraseFinder:
    """The PhraseFinder access method."""

    name = "PhraseFinder"

    def __init__(self, store: XMLStore, phrase_weight: float = 1.0,
                 strict: bool = False):
        self.store = store
        self.phrase_weight = phrase_weight
        #: raise :class:`~repro.errors.UnknownTermError` on phrase terms
        #: absent from the index (mirrors TermJoin's ``strict`` flag)
        self.strict = strict
        #: access-method counters of the most recent
        #: :meth:`occurrences`/:meth:`run` (``postings_scanned``,
        #: ``offset_comparisons``, ``candidates_rejected``,
        #: ``phrase_occurrences``) — surfaced by EXPLAIN ANALYZE.
        self.last_stats: Dict[str, int] = {}

    def run(self, phrase_terms: Sequence[str]) -> List[PhraseMatch]:
        """Elements whose direct text contains the phrase, with occurrence
        counts and scores, in document order."""
        occurrences = self.occurrences(phrase_terms)
        out: List[PhraseMatch] = []
        counts: Dict[Tuple[int, int], int] = {}
        for occ in occurrences:
            key = (occ.doc_id, occ.node_id)
            counts[key] = counts.get(key, 0) + 1
        for (doc_id, node_id), count in sorted(counts.items()):
            out.append(
                PhraseMatch(
                    doc_id, node_id, count, count * self.phrase_weight
                )
            )
        self.last_stats["phrase_matches"] = len(out)
        return out

    def occurrences(
        self, phrase_terms: Sequence[str],
        only_doc: Optional[int] = None,
    ) -> List[PhraseOccurrence]:
        """Every phrase occurrence, with the start word's region
        position — the input :class:`~repro.access.phrasejoin.PhraseJoin`
        needs to score *ancestors* by phrase counts.  Sorted by
        (doc, pos).  ``only_doc`` restricts every term's postings to
        that document (``None``: every document)."""
        if not phrase_terms:
            self.last_stats = {
                "postings_scanned": 0, "offset_comparisons": 0,
                "candidates_rejected": 0, "phrase_occurrences": 0,
            }
            return []
        index = self.store.index
        counters = self.store.counters
        scanned = 0
        comparisons = 0
        rejected = 0

        # Guard hook: hoisted boolean per posting when inactive, a
        # deadline/cancellation check every 256 postings when active.
        guard = _resguard.GUARD
        guard_active = guard.active
        gi = 0

        # Offsets per (doc, node) for each term, gathered in one pass per
        # posting list.  Intersection and offset verification are fused:
        # a node survives only while every prefix term has a matching
        # offset chain.  Each chain remembers where it started.  Only
        # the first term's ``pos`` column is read (a phrase is *at* its
        # first word); later terms are checked on doc/node/offset alone.
        first = index.postings(phrase_terms[0], strict=self.strict).postings
        if only_doc is not None:
            first = first.for_document(only_doc)
        counters.index_lookups += 1
        counters.postings_read += len(first)
        scanned += len(first)
        # chains: (doc, node) -> {end_offset: (start_pos, start_offset)}
        chains: Dict[Tuple[int, int], Dict[int, Tuple[int, int]]] = {}
        for doc_id, pos, node_id, offset in first:
            if guard_active:
                gi += 1
                if not (gi & 255):
                    guard.tick(256)
            chains.setdefault((doc_id, node_id), {})[offset] = (pos, offset)

        for term in phrase_terms[1:]:
            if not chains:
                break
            if guard_active:
                guard.tick()
            cols = index.postings(term, strict=self.strict).postings
            if only_doc is not None:
                cols = cols.for_document(only_doc)
            counters.index_lookups += 1
            counters.postings_read += len(cols)
            scanned += len(cols)
            comparisons += len(cols)  # one offset check per posting
            nxt: Dict[Tuple[int, int], Dict[int, Tuple[int, int]]] = {}
            for key, offset in zip(zip(cols.doc, cols.node), cols.offset):
                if guard_active:
                    gi += 1
                    if not (gi & 255):
                        guard.tick(256)
                prev = chains.get(key)
                if prev is not None and offset - 1 in prev:
                    nxt.setdefault(key, {})[offset] = prev[offset - 1]
            # candidate (doc, node) chains that no posting of this term
            # could extend are rejected here, never re-examined
            rejected += len(chains) - len(nxt)
            chains = nxt

        occs = [
            PhraseOccurrence(doc_id, start_pos, node_id, start_offset)
            for (doc_id, node_id), ends in chains.items()
            for (start_pos, start_offset) in ends.values()
        ]
        occs.sort()
        self.last_stats = {
            "postings_scanned": scanned,
            "offset_comparisons": comparisons,
            "candidates_rejected": rejected,
            "phrase_occurrences": len(occs),
        }
        rec = _obs.RECORDER
        if rec.enabled:
            rec.count("phrasefinder.runs")
            for key, value in self.last_stats.items():
                rec.count(f"phrasefinder.{key}", value)
        return occs
