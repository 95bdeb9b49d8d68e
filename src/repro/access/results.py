"""Result records shared by the access methods.

One record is allocated per scored element — hundreds of thousands per
benchmark sweep — so both carry ``__slots__`` and a plain ``__init__``:
``frozen=True`` would route every field through ``object.__setattr__``
and triple the cost of making one.  ``unsafe_hash`` keeps them hashable
by value, as the frozen records were; treat them as immutable.
"""

from __future__ import annotations

from dataclasses import dataclass


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


@dataclass(eq=True, unsafe_hash=True)
class PhraseMatch:
    """One element containing phrase occurrences, with the count of
    occurrences and the resulting score."""

    __slots__ = ("doc_id", "node_id", "count", "score")

    doc_id: int
    node_id: int
    count: int
    score: float
