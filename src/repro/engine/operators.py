"""Physical operators for the pipelined engine.

These are exactly the operators the compiler builds: a score-generating
scan, the rank operators (Sort, Limit and §5.3's bounded-heap TopK), and
the final Materialize.  Rows are :class:`StoredTree` references to
stored nodes.
"""

from __future__ import annotations

from itertools import compress, repeat
from operator import gt, itemgetter
from typing import Callable, List, Optional, Sequence

from repro.access.results import ScoredColumns
from repro.resilience import guard as _resguard
from repro.core.trees import STree, StoredTree
from repro.engine.base import Operator
from repro.xmldb.store import XMLStore


class TermJoinScan(Operator):
    """Source wrapping a score-generating access method (TermJoin or
    PhraseJoin), whose ``run(terms)`` returns
    :class:`~repro.access.results.ScoredColumns`: one
    :class:`StoredTree` row per scored element that passes ``> min_score``,
    a reference to the stored node that builds no tree unless a
    downstream operator reads its ``root``.  The score filter is one pass
    over the score column; a row is built only when it is handed out.
    ``doc_id`` restricts the scan to one document's postings (``None``:
    every document)."""

    name = "termjoin-scan"

    def __init__(self, store: XMLStore, terms: Sequence[str],
                 method, min_score: Optional[float] = None,
                 doc_id: Optional[int] = None):
        super().__init__()
        self.store = store
        self.terms = list(terms)
        self.method = method
        self.min_score = min_score
        self.doc_id = doc_id
        self._results: Optional[ScoredColumns] = None
        self._rows: Sequence[int] = ()
        self._i = 0

    def describe(self) -> str:
        return (
            f"termjoin-scan({getattr(self.method, 'name', 'method')}, "
            f"terms={self.terms})"
        )

    def _open(self) -> None:
        results = self.method.run(self.terms, self.doc_id)
        self.stats.counters.update(getattr(self.method, "last_stats", {}))
        scores = results.score
        rows: Sequence[int] = range(len(scores))
        if self.min_score is not None:
            keep = map(gt, scores, repeat(self.min_score))
            rows = list(compress(rows, keep))
        self._results = results
        self._rows = rows
        self._i = 0

    def _next(self) -> Optional[STree]:
        i = self._i
        if i >= len(self._rows):
            return None
        self._i = i + 1
        row = self._rows[i]
        results = self._results
        return StoredTree(self.store.document(results.doc[row]),
                          results.node[row], results.score[row])


class Sort(Operator):
    """Blocking sort by tree score (descending by default) or a custom
    key."""

    name = "sort"

    def __init__(self, child: Operator,
                 key: Optional[Callable[[STree], float]] = None,
                 descending: bool = True):
        super().__init__([child])
        self.key = key or (
            lambda t: t.score if t.score is not None else float("-inf")
        )
        self.descending = descending
        self._buffer: List[STree] = []

    def _open(self) -> None:
        # Stable sort, then reversed so that rows are handed out from
        # the end of the buffer in O(1).
        self._buffer = sorted(
            self.children[0], key=self.key, reverse=self.descending
        )
        self._buffer.reverse()

    def _next(self) -> Optional[STree]:
        return self._buffer.pop() if self._buffer else None


class Limit(Operator):
    """'stop after k' — emit at most k trees."""

    name = "limit"

    def __init__(self, child: Operator, k: int):
        super().__init__([child])
        self.k = k
        self._emitted = 0

    def describe(self) -> str:
        return f"limit({self.k})"

    def _open(self) -> None:
        self._emitted = 0

    def _next(self) -> Optional[STree]:
        if self._emitted >= self.k:
            return None
        item = self.children[0].next()
        if item is not None:
            self._emitted += 1
        return item


class TopK(Operator):
    """Exact top-k by tree score with a bounded heap — the streaming
    replacement for Sort+Limit when only *k* ranked results are needed
    (§5.3's efficient K-Threshold evaluation).  Memory is O(k), not
    O(input); ties keep the earlier input."""

    name = "top-k"

    def __init__(self, child: Operator, k: int):
        super().__init__([child])
        if k <= 0:
            raise ValueError("k must be positive")
        self.k = k
        self._buffer: List[STree] = []

    def describe(self) -> str:
        return f"top-k({self.k})"

    def _open(self) -> None:
        import heapq

        heap: List[tuple] = []  # (score, -arrival, tree) min-heap
        arrival = 0
        for tree in self.children[0]:
            score = tree.score if tree.score is not None else float("-inf")
            arrival += 1
            entry = (score, -arrival, tree)
            if len(heap) < self.k:
                heapq.heappush(heap, entry)
            elif entry[:2] > heap[0][:2]:
                heapq.heapreplace(heap, entry)
        # Ascending (score, -arrival) is the output order reversed:
        # rows are handed out from the end of the buffer in O(1).
        self._buffer = [
            t for _s, _a, t in sorted(heap, key=itemgetter(0, 1))
        ]

    def _next(self) -> Optional[STree]:
        return self._buffer.pop() if self._buffer else None


class Materialize(Operator):
    """Mark each scan row as standing for its full stored subtree
    (keeping the score) — the final 'retrieve from the database and
    return to the user' step of Example 3.1.  No tree is built: the
    subtree is sliced from the document's image when the answer is
    serialised."""

    name = "materialize"

    def __init__(self, child: Operator):
        super().__init__([child])

    def _next(self) -> Optional[STree]:
        item = self.children[0].next()
        if item is None or item.full:
            return item
        g = _resguard.GUARD
        if g.active:
            g.count_materialized()
        return StoredTree(item.doc, item.node_id, item.score, full=True)
