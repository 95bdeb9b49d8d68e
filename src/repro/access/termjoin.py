"""TermJoin and Enhanced TermJoin (Fig. 11, §5.1.1, §6.1).

TermJoin generalizes the stack-based structural-join family to IR-style
score generation: one merge pass over the per-term posting lists, with a
stack holding the ancestor chain of the current occurrence.  Every element
whose subtree contains at least one query-term occurrence is pushed
exactly once, accumulates per-term counters (and, in complex mode, the
ordered occurrence buffer and child-relevance statistics), and is scored
and emitted when popped — i.e. when the merge has passed its region, so
all information about its subtree is complete.

Modes, matching the ``s`` flag of Fig. 11:

- **simple**: per-term counters only; scored via
  ``scorer.score_from_counts``;
- **complex** (``complex_scoring=True``): additionally maintains the
  document-ordered occurrence buffer (``AppendToBufferAndList`` in the
  pseudo-code) and the number of relevant children, and needs the total
  child count of each popped element.  Base TermJoin obtains that count by
  *navigating* the stored document (first-child / next-sibling walks, each
  step a data access); :class:`EnhancedTermJoin` instead reads it from the
  structure index in O(1) — the §6.1 variant that wins by a few times.

**The pass, over posting columns.**  The per-term columns are
concatenated and brought into ``(doc, pos)`` order by one sort of row
numbers on a packed key — the k-way run merge of the paper's "single
merge pass", done by Timsort over ints.  In the merged stream the
occurrences under an element are one *contiguous span* ``[lo, i)``:
``lo`` is the posting that pushed the element, ``i`` the posting that
pops it.  So a stacked ancestor is three ints in three parallel lists —
its node id, its ``lo``, and (complex mode) its relevant-child count —
and a pop reads the element's counters from per-term prefix sums
(``cum[i] - cum[lo]``) or its occurrence buffer from one slice;
nothing is merged or copied a level up.

**Output, as columns.**  A pop appends the element's document id, node
id and score to three parallel columns — two ``array('i')`` and a list
of the scorer's own return values — returned as one
:class:`~repro.access.results.ScoredColumns`.  No per-element object is
allocated: a :class:`~repro.access.results.ScoredElement` exists only
for a row that is read one by one, and the engine's scan filters the
score column and wraps only the rows that survive.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from itertools import accumulate, chain
from operator import itemgetter
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from repro import obs as _obs
from repro.resilience import guard as _resguard
from repro.access.results import ScoredColumns
from repro.index.inverted import INT
from repro.xmldb.document import Document
from repro.xmldb.store import XMLStore

#: ``top_end`` of an empty stack: no position is beyond it.
_OPEN = sys.maxsize

#: Canonical order of an occurrence buffer ``(term, node, offset)``.
_BY_NODE_OFFSET = itemgetter(1, 2)


class TermJoin:
    """The TermJoin access method.

    ``scorer`` must provide ``score_from_counts`` (simple mode) or
    ``score_from_occurrences`` (complex mode) — see
    :mod:`repro.access.scorers`.
    """

    #: Human-readable name used by the benchmark tables.
    name = "TermJoin"

    def __init__(self, store: XMLStore, scorer,
                 complex_scoring: bool = False, strict: bool = False):
        self.store = store
        self.scorer = scorer
        self.complex_scoring = complex_scoring
        #: raise :class:`~repro.errors.UnknownTermError` on terms absent
        #: from the index instead of treating them as empty posting lists
        self.strict = strict
        #: access-method counters of the most recent :meth:`run`
        #: (``postings_scanned``, ``stack_pushes``, ``stack_pops``,
        #: ``elements_scored``) — surfaced by EXPLAIN ANALYZE.
        self.last_stats: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Child counting: base TermJoin navigates the data (§6.1: "a data
    # access to the database is performed and some navigation is needed
    # to get the number of children").
    # ------------------------------------------------------------------

    def _child_count(self, doc: Document, node_id: int) -> int:
        # First child, then next sibling until the subtree is left: a
        # node's next sibling is the first node starting past its end.
        starts = doc.starts
        ends = doc.ends
        last = bisect_left(starts, ends[node_id]) - 1
        count = 0
        child = node_id + 1
        while child <= last:
            count += 1
            child = bisect_left(starts, ends[child])
        counters = self.store.counters
        counters.navigations += count
        counters.nodes_fetched += 1
        return count

    # ------------------------------------------------------------------
    # The merge pass
    # ------------------------------------------------------------------

    def run(self, terms: Sequence[str],
            only_doc: Optional[int] = None) -> ScoredColumns:
        """Score every element whose subtree contains at least one
        occurrence of any term in ``terms``.  Output order is pop order =
        ascending end key (children before parents).

        Each distinct term is fetched once, however often ``terms``
        names it.  ``only_doc`` restricts the pass to that document's
        postings (``None``: every document); since the stack empties at
        every document change, the output is then exactly the
        unrestricted output's rows for that document, in the same order
        and with the same scores."""
        index = self.store.index
        counters = self.store.counters
        guard = _resguard.GUARD
        guard_active = guard.active

        # Fetch: the per-term columns end to end, each posting labelled
        # with its (normalised) term.
        docs = array(INT)
        poss = array(INT)
        nodes = array(INT)
        offsets = array(INT)
        labels: List[str] = []
        runs = 0
        for term in dict.fromkeys(t.lower() for t in terms):
            if guard_active:
                guard.tick()
            fetched = index.postings(term, strict=self.strict)
            cols = fetched.postings
            if only_doc is not None:
                cols = cols.for_document(only_doc)
            counters.index_lookups += 1
            counters.postings_read += len(cols)
            if len(cols):
                runs += 1
                docs += cols.doc
                poss += cols.pos
                nodes += cols.node
                offsets += cols.offset
                labels += [fetched.term] * len(cols)
        if runs > 1 and self.complex_scoring:
            docs, poss, nodes, labels, offsets = merge_runs(
                docs, poss, nodes, labels, offsets)
        elif runs > 1:  # simple mode never reads the offsets
            docs, poss, nodes, labels = merge_runs(
                docs, poss, nodes, labels)
        out = self.stack_pass(docs, poss, nodes, labels, offsets)

        # Every pushed entry is popped exactly once and every pop emits
        # exactly one element, so pushes == pops == len(out): the stack
        # counters cost nothing in the merge loop.
        self.last_stats = {
            "postings_scanned": len(docs),
            "stack_pushes": len(out),
            "stack_pops": len(out),
            "elements_scored": len(out),
        }
        rec = _obs.RECORDER
        if rec.enabled:
            prefix = self.name.lower()
            rec.count(f"{prefix}.runs")
            for key, value in self.last_stats.items():
                rec.count(f"{prefix}.{key}", value)
        return out

    def stack_pass(self, docs: Sequence[int], poss: Sequence[int],
                   nodes: Sequence[int], labels: Sequence[Hashable],
                   offsets: Sequence[int] = ()) -> ScoredColumns:
        """The stack pass over one ``(doc, pos)``-ordered occurrence
        stream given as parallel columns.  ``labels`` names what each
        occurrence counts towards — a term here, a phrase for
        :class:`~repro.access.phrasejoin.PhraseJoin` — and keys the
        ``counts`` dict handed to ``scorer.score_from_counts``;
        ``offsets`` is read in complex mode only."""
        store = self.store
        track = self.complex_scoring
        guard = _resguard.GUARD
        guard_active = guard.active

        scorer = self.scorer
        if track:
            occurrences = list(zip(labels, nodes, offsets))
            score_occurrences = scorer.score_from_occurrences
            child_count = self._child_count
        else:
            # cum[i] = occurrences of the label among postings [0, i).
            cums = [
                (label,
                 list(accumulate(map(label.__eq__, labels), initial=0)))
                for label in dict.fromkeys(labels)
            ]
            score_counts = scorer.score_from_counts

        out_doc = array(INT)
        out_node = array(INT)
        out_score: List[Any] = []
        emit_doc = out_doc.append
        emit_node = out_node.append
        emit_score = out_score.append
        # The stack of ancestors, root first, as parallel int lists.
        st_node: List[int] = []
        st_lo: List[int] = []    # first posting of the element's span
        st_rel: List[int] = []   # relevant children popped so far (complex)
        top = -1                 # st_node[-1], or -1
        top_end = _OPEN          # its end key
        cur_doc: Optional[Document] = None
        cur_doc_id = -1
        parents: List[int] = []
        ends: List[int] = []
        # Canonical occurrence order is (text node id, offset): a node's
        # direct text counts as appearing at the node's start.  The
        # merged stream orders trailing mixed content by true position
        # instead, which shows as a node id *dropping* from one posting
        # to the next; a span needs sorting only if the latest such drop
        # lies inside it.
        last_drop = 0
        prev_node = -1

        # Guard hook: one hoisted boolean test per posting when inactive,
        # a deadline/cancellation check every 256 postings when active.
        gi = 0

        # One closing posting of document -1 pops whatever is left.
        stream = chain(zip(docs, poss, nodes), ((-1, 0, -1),))
        for i, (doc_id, pos, node_id) in enumerate(stream):
            if guard_active:
                gi += 1
                if not (gi & 255):
                    guard.tick(256)
            # Pop every stacked element whose region ended before this
            # posting — all of them when the document changes.
            limit = pos if doc_id == cur_doc_id else _OPEN
            while top_end < limit:
                node = st_node.pop()
                lo = st_lo.pop()
                if track:
                    relevant = st_rel.pop()
                    if st_rel:
                        st_rel[-1] += 1
                    span = occurrences[lo:i]
                    if last_drop > lo:
                        span.sort(key=_BY_NODE_OFFSET)
                    score = score_occurrences(
                        span, child_count(cur_doc, node), relevant)
                else:
                    counts = {}
                    for label, cum in cums:
                        count = cum[i] - cum[lo]
                        if count:
                            counts[label] = count
                    score = score_counts(counts)
                emit_doc(cur_doc_id)
                emit_node(node)
                emit_score(score)
                if st_node:
                    top = st_node[-1]
                    top_end = ends[top]
                else:
                    top = -1
                    top_end = _OPEN
            if limit != pos:
                if doc_id < 0:
                    break
                cur_doc = store.document(doc_id)
                cur_doc_id = doc_id
                parents = cur_doc.parents
                ends = cur_doc.ends
            elif node_id < prev_node:
                last_drop = i
            prev_node = node_id
            # Push the not-yet-stacked ancestors of this occurrence; all
            # of their spans start here.
            if node_id != top:
                depth = len(st_node)
                cur = node_id
                while cur != top:
                    st_node.insert(depth, cur)
                    cur = parents[cur]
                pushed = len(st_node) - depth
                st_lo += [i] * pushed
                if track:
                    st_rel += [0] * pushed
                top = node_id
                top_end = ends[top]

        return ScoredColumns(out_doc, out_node, out_score)


def merge_runs(docs: Sequence[int], poss: Sequence[int],
               *columns: Sequence[Any]) -> Tuple[Sequence[Any], ...]:
    """Merge concatenated runs, each already in ``(doc, pos)`` order,
    into one stream: sorting the row numbers by a packed key is the
    k-way run merge (Timsort over ints, ties kept in run order); every
    column is then gathered in that order.  Needs at least two rows."""
    keys = [d << 32 | p for d, p in zip(docs, poss)]
    merged = itemgetter(*sorted(range(len(keys)), key=keys.__getitem__))
    return tuple(merged(col) for col in (docs, poss) + columns)


class EnhancedTermJoin(TermJoin):
    """TermJoin with the child count taken from the structure index
    instead of data navigation (§6.1: "uses an index structure to get a
    parent of a given node; along with the parent information, the number
    of children of this parent is returned").  Only meaningful with the
    complex scoring function — the simple function never looks at
    children, which is why the paper omits Enhanced TermJoin from
    Table 1."""

    name = "EnhancedTermJoin"

    def _child_count(self, doc: Document, node_id: int) -> int:
        self.store.counters.index_lookups += 1
        return self.store.structure.fanout(doc.doc_id, node_id)
