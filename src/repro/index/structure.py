"""Structure index: parents, child counts, the global element list.

Two consumers:

- **Enhanced TermJoin** (§6.1): "uses an index structure to get a parent of
  a given node.  Along with the parent information, the number of children
  of this parent is returned."  :meth:`StructureIndex.parent_and_fanout`
  is exactly that O(1) lookup.
- the **Comp2 baseline**, which joins each term's postings against every
  element sorted by start key.
"""

from __future__ import annotations

from itertools import repeat
from typing import List, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.xmldb.store import XMLStore

#: An element reference as used by structural joins:
#: (doc_id, start, end, level, node_id).
ElementRef = Tuple[int, int, int, int, int]

E_DOC = 0
E_START = 1
E_END = 2
E_LEVEL = 3
E_NODE = 4


class StructureIndex:
    """Precomputed structural lookups over an entire store."""

    def __init__(
        self,
        parents: List[List[int]],
        fanouts: List[List[int]],
        all_elements: List[ElementRef],
    ):
        self._parents = parents       # per doc: node -> parent id
        self._fanouts = fanouts       # per doc: node -> child count
        self._all = all_elements      # every element ref (doc order)

    @classmethod
    def build(cls, store: "XMLStore") -> "StructureIndex":
        parents: List[List[int]] = []
        fanouts: List[List[int]] = []
        all_elements: List[ElementRef] = []
        for doc in store.documents():
            parents.append(list(doc.parents))
            fanouts.append(doc.child_counts())
            all_elements.extend(zip(repeat(doc.doc_id), doc.starts,
                                    doc.ends, doc.levels, range(len(doc))))
        return cls(parents, fanouts, all_elements)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StructureIndex):
            return NotImplemented
        return (self._parents == other._parents
                and self._fanouts == other._fanouts
                and self._all == other._all)

    __hash__ = None  # type: ignore[assignment]

    # ------------------------------------------------------------------
    # O(1) lookups
    # ------------------------------------------------------------------

    def parent(self, doc_id: int, node_id: int) -> int:
        """Parent node id (``-1`` for a root)."""
        return self._parents[doc_id][node_id]

    def fanout(self, doc_id: int, node_id: int) -> int:
        """Number of child elements."""
        return self._fanouts[doc_id][node_id]

    def parent_and_fanout(self, doc_id: int, node_id: int) -> Tuple[int, int]:
        """The Enhanced-TermJoin lookup: parent id and *that parent's*
        child count, in one index probe.  Returns ``(-1, 0)`` for roots."""
        parent = self._parents[doc_id][node_id]
        if parent < 0:
            return -1, 0
        return parent, self._fanouts[doc_id][parent]

    # ------------------------------------------------------------------
    # Scans
    # ------------------------------------------------------------------

    def all_elements(self) -> List[ElementRef]:
        """Every element ref in global document order.  The Comp2 baseline
        scans this list: its cost is what makes Comp2 frequency-independent
        (and slow)."""
        return self._all

    @property
    def n_elements(self) -> int:
        return len(self._all)
