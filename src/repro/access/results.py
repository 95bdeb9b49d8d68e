"""Result records and the columnar result of the stack pass.

TermJoin, Enhanced TermJoin and PhraseJoin score hundreds of thousands
of elements per benchmark sweep, and most of those rows are never read
one by one: the engine's scan filters them by score and wraps only the
survivors.  So the stack pass hands back :class:`ScoredColumns` — three
parallel columns ``doc``/``node`` (``array('i')``) and ``score`` (the
scorer's own return values) — which the collector sees as two objects
whatever its length.  A :class:`ScoredElement` is built only for a row
someone indexes or iterates, and the columns compare equal to the list
of records they stand for, so callers written against a list keep
working.

The records carry ``__slots__`` and a plain ``__init__``: ``frozen=True``
would route every field through ``object.__setattr__`` and triple the
cost of making one.  ``unsafe_hash`` keeps them hashable by value, as
the frozen records were; treat them as immutable.  The composite
baselines, Generalized Meet and PhraseFinder still return lists of them.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import List


@dataclass(eq=True, unsafe_hash=True)
class ScoredElement:
    """One scored element produced by a score-generating access method
    (TermJoin, Generalized Meet, the composite plans, PhraseFinder): a
    global node address plus its relevance score."""

    __slots__ = ("doc_id", "node_id", "score")

    doc_id: int
    node_id: int
    score: float

    def key(self):
        """(doc, node) grouping key."""
        return (self.doc_id, self.node_id)


class ScoredColumns(Sequence):
    """A read-only sequence of :class:`ScoredElement` kept as three
    parallel columns.  Row ``i`` is ``(doc[i], node[i], score[i])``; a
    record is made only when a row is indexed or iterated, a slice stays
    columnar, and ``==`` follows list semantics against a list of
    records or another :class:`ScoredColumns`."""

    __slots__ = ("doc", "node", "score")

    def __init__(self, doc: Sequence[int], node: Sequence[int],
                 score: List[float]):
        self.doc = doc
        self.node = node
        self.score = score

    def __len__(self) -> int:
        return len(self.node)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return ScoredColumns(self.doc[i], self.node[i], self.score[i])
        return ScoredElement(self.doc[i], self.node[i], self.score[i])

    def __iter__(self):
        return map(ScoredElement, self.doc, self.node, self.score)

    def __eq__(self, other) -> bool:
        if isinstance(other, ScoredColumns):
            other = list(other)
        elif not isinstance(other, list):
            return NotImplemented
        return list(self) == other

    def __repr__(self) -> str:
        return repr(list(self))


@dataclass(eq=True, unsafe_hash=True)
class PhraseMatch:
    """One element containing phrase occurrences, with the count of
    occurrences and the resulting score."""

    __slots__ = ("doc_id", "node_id", "count", "score")

    doc_id: int
    node_id: int
    count: int
    score: float
