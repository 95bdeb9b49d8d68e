"""Region-encoded XML documents.

Every element node receives three keys drawn from one monotonically
increasing per-document counter:

- ``start``: taken when the element opens,
- one position per *word* of text content (words consume counter values so
  that term positions nest strictly inside the regions of all their
  ancestor elements),
- ``end``: taken when the element closes.

This is the classic region/interval numbering used by the structural-join
literature the paper builds on (Zhang et al. SIGMOD'01, Al-Khalifa et al.
ICDE'01): element *a* is an ancestor of node *b* iff
``a.start < b.start and b.end <= a.end`` (for words, ``b.end == b.start``).

Node ids are assigned in document (pre-)order, so the descendants of node
``n`` are exactly the contiguous id range ``n+1 .. last_descendant(n)``.

The document is stored columnar: parallel lists for tags / starts / ends /
levels / parents, a flat word table in document order, and a per-node
content list (interleaved child ids and text segments) used only for
serialization and ``alltext``.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import (
    Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union,
)

from repro.xmldb.text import attr_string, escape_text

#: Sentinel parent id for document roots.
NO_PARENT = -1


@dataclass(frozen=True)
class NodeRecord:
    """Immutable view of one element node.

    This is a convenience wrapper materialized on demand by
    :meth:`Document.node`; the store of record is the columnar arrays.
    """

    node_id: int
    doc_id: int
    tag: str
    start: int
    end: int
    level: int
    parent: int
    attrs: Dict[str, str] = field(default_factory=dict)

    def contains(self, other: "NodeRecord") -> bool:
        """Region containment test: is ``other`` in this node's subtree
        (strictly below it)?"""
        return self.start < other.start and other.end <= self.end

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NodeRecord(#{self.node_id} <{self.tag}> "
            f"[{self.start},{self.end}] lvl={self.level})"
        )


@dataclass(frozen=True)
class WordOccurrence:
    """One word occurrence in a document.

    ``pos`` is the global region-numbering position (nested inside every
    ancestor's [start, end] interval); ``node_id`` is the element whose
    *direct* text contains the word; ``offset`` is the word's ordinal within
    that element's direct text (phrase adjacency = consecutive offsets in
    the same node, in order — exactly the check PhraseFinder performs).
    """

    term: str
    doc_id: int
    pos: int
    node_id: int
    offset: int


# Content items are either a child element id (int) or a text segment (str).
ContentItem = Union[int, str]


class XMLImage(NamedTuple):
    """A document's canonical XML (:meth:`Document.image`) and where each
    element sits in it: element ``n`` is ``text[start[n]:end[n]]``, and
    its start tag runs from ``start[n]`` to ``open_end[n]``, the offset
    just before the tag's ``>`` or ``/>``."""

    text: str
    start: array
    open_end: array
    end: array


class Document:
    """An immutable, columnar, region-encoded XML document.

    Instances are built by :class:`repro.xmldb.builder.DocumentBuilder` (used
    by both the parser and the synthetic generator) and then frozen; all
    query-time structures treat them as read-only.
    """

    def __init__(
        self,
        name: str,
        doc_id: int,
        tags: List[str],
        starts: List[int],
        ends: List[int],
        levels: List[int],
        parents: List[int],
        attrs: Dict[int, Dict[str, str]],
        content: List[List[ContentItem]],
        word_terms: List[str],
        word_pos: List[int],
        word_node: List[int],
        word_offset: List[int],
        word_slices: List[Tuple[int, int]],
    ):
        self.name = name
        self.doc_id = doc_id
        self.tags = tags
        self.starts = starts
        self.ends = ends
        self.levels = levels
        self.parents = parents
        self.attrs = attrs
        self.content = content
        # Flat word table, document order (ascending pos).
        self.word_terms = word_terms
        self.word_pos = word_pos
        self.word_node = word_node
        self.word_offset = word_offset
        # Per-node [lo, hi) slice into the word table covering the words of
        # the node's *entire subtree* (possible because preorder regions are
        # contiguous in the flat table).
        self.word_slices = word_slices
        # Children ids per node, derived once.
        self._children: List[List[int]] = [[] for _ in tags]
        for nid, parent in enumerate(parents):
            if parent != NO_PARENT:
                self._children[parent].append(nid)
        # The canonical XML image, written on first use (see image()).
        self._image: Optional[XMLImage] = None

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """Number of element nodes."""
        return len(self.tags)

    @property
    def n_words(self) -> int:
        """Number of word occurrences in the document."""
        return len(self.word_terms)

    @property
    def root(self) -> int:
        """Node id of the document root (always 0)."""
        return 0

    def node(self, node_id: int) -> NodeRecord:
        """Materialize a :class:`NodeRecord` view of ``node_id``."""
        return NodeRecord(
            node_id=node_id,
            doc_id=self.doc_id,
            tag=self.tags[node_id],
            start=self.starts[node_id],
            end=self.ends[node_id],
            level=self.levels[node_id],
            parent=self.parents[node_id],
            attrs=self.attrs.get(node_id, {}),
        )

    def nodes(self) -> Iterator[NodeRecord]:
        """Iterate all element nodes in document order."""
        for nid in range(len(self.tags)):
            yield self.node(nid)

    # ------------------------------------------------------------------
    # Navigation
    # ------------------------------------------------------------------

    def parent(self, node_id: int) -> int:
        """Parent element id, or :data:`NO_PARENT` for the root."""
        return self.parents[node_id]

    def children(self, node_id: int) -> Sequence[int]:
        """Child element ids in document order."""
        return self._children[node_id]

    def n_children(self, node_id: int) -> int:
        """Number of child elements (O(1); this is the statistic the
        Enhanced TermJoin fetches from an index)."""
        return len(self._children[node_id])

    def child_counts(self) -> List[int]:
        """``n_children`` of every node, in node-id order."""
        return list(map(len, self._children))

    def ancestors(self, node_id: int) -> List[int]:
        """Ancestor ids from the root down to the parent of ``node_id``.

        Root-first order matches what the TermJoin stack discipline wants:
        the stack bottom is the document root.
        """
        chain: List[int] = []
        cur = self.parents[node_id]
        while cur != NO_PARENT:
            chain.append(cur)
            cur = self.parents[cur]
        chain.reverse()
        return chain

    def ancestors_of_pos(self, pos: int) -> List[int]:
        """Ancestors (root-first) of the *word* at region position ``pos``:
        every element whose region contains the position."""
        nid = self.node_at_pos(pos)
        if nid is None:
            return []
        return self.ancestors(nid) + [nid]

    def node_at_pos(self, pos: int) -> Optional[int]:
        """The deepest element whose region contains position ``pos``.

        Because ids are preorder and regions nest, this is the last node
        with ``start <= pos`` whose ``end >= pos``.
        """
        i = bisect_right(self.starts, pos) - 1
        while i >= 0:
            if self.ends[i] >= pos:
                return i
            i = self.parents[i]
        return None

    def last_descendant(self, node_id: int) -> int:
        """Highest node id in the subtree of ``node_id`` (itself if leaf)."""
        end = self.ends[node_id]
        # All descendants have start < end; ids are preorder-contiguous.
        return bisect_left(self.starts, end) - 1

    def descendants(self, node_id: int) -> range:
        """Id range of strict descendants of ``node_id``."""
        return range(node_id + 1, self.last_descendant(node_id) + 1)

    def subtree(self, node_id: int) -> range:
        """Id range of the subtree rooted at ``node_id`` (inclusive)."""
        return range(node_id, self.last_descendant(node_id) + 1)

    def is_ancestor(self, anc: int, desc: int) -> bool:
        """Region-containment ancestor test (strict)."""
        return (self.starts[anc] < self.starts[desc]
                and self.ends[desc] <= self.ends[anc])

    def level(self, node_id: int) -> int:
        """Depth of the node; the root is level 0."""
        return self.levels[node_id]

    # ------------------------------------------------------------------
    # Text access
    # ------------------------------------------------------------------

    def direct_words(self, node_id: int) -> List[str]:
        """Words in the node's *direct* text content, in order: the gaps
        of the node's word slice that its children's slices leave."""
        lo, hi = self.word_slices[node_id]
        terms = self.word_terms
        out: List[str] = []
        for child in self._children[node_id]:
            child_lo, child_hi = self.word_slices[child]
            out += terms[lo:child_lo]
            lo = child_hi
        out += terms[lo:hi]
        return out

    def subtree_words(self, node_id: int) -> List[str]:
        """All words in the subtree of ``node_id`` — the paper's
        ``alltext()`` primitive, used by the naive scoring oracle."""
        lo, hi = self.word_slices[node_id]
        return self.word_terms[lo:hi]

    def alltext(self, node_id: int) -> str:
        """Subtree text as a single space-joined string."""
        return " ".join(self.subtree_words(node_id))

    def direct_text(self, node_id: int) -> str:
        """The node's direct text segments, concatenated verbatim."""
        return "".join(
            item for item in self.content[node_id] if isinstance(item, str)
        )

    def word_slice(self, node_id: int) -> Tuple[int, int]:
        """[lo, hi) range in the flat word table covering the subtree."""
        return self.word_slices[node_id]

    def word_occurrence(self, i: int) -> WordOccurrence:
        """Materialize word-table row ``i``."""
        return WordOccurrence(
            term=self.word_terms[i],
            doc_id=self.doc_id,
            pos=self.word_pos[i],
            node_id=self.word_node[i],
            offset=self.word_offset[i],
        )

    # ------------------------------------------------------------------
    # Matching helpers
    # ------------------------------------------------------------------

    def find_by_tag(self, tag: str) -> List[int]:
        """All node ids with the given tag, in document order."""
        return [nid for nid, t in enumerate(self.tags) if t == tag]

    def attr(self, node_id: int, name: str) -> Optional[str]:
        """Attribute value or ``None``."""
        return self.attrs.get(node_id, {}).get(name)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def serialize(self, node_id: Optional[int] = None,
                  indent: bool = False) -> str:
        """Serialize the subtree at ``node_id`` (default: root) back to XML.

        With ``indent=True`` a readable pretty-printed form is produced;
        otherwise the original text segments are emitted verbatim, so a
        parse → serialize round trip preserves text content exactly.
        """
        out: List[str] = []
        self._serialize_into(
            node_id if node_id is not None else 0, out, indent, 0)
        return "".join(out)

    def image(self) -> XMLImage:
        """The document's canonical XML image, written on first use.

        Each element is its tag and attributes, then its direct words
        joined by single spaces, then its child elements: the bytes
        :meth:`repro.core.trees.SNode.to_xml` writes for the stored tree
        (unlike :meth:`serialize`, which keeps the source's text
        segments).  Regions nest, so every element is one substring of
        the image and a stored answer is a slice of it.  The image is
        published in one assignment once complete, so two threads that
        build it at once write equal images and either may win; the
        content never changes (a store renumbers ``doc_id`` only), so
        it lives as long as the document."""
        image = self._image
        if image is None:
            image = self._image = self._write_image()
        return image

    def _write_image(self) -> XMLImage:
        tags, levels, all_attrs = self.tags, self.levels, self.attrs
        start, open_end, end = (array("i", [0]) * len(tags) for _ in range(3))
        out: List[str] = []
        pos = 0
        open_ids: List[int] = []

        def close(nid: int) -> None:
            nonlocal pos
            out.append(f"</{tags[nid]}>")
            pos += len(out[-1])
            end[nid] = pos

        for nid, level in enumerate(levels):
            while open_ids and levels[open_ids[-1]] >= level:
                close(open_ids.pop())
            head = f"<{tags[nid]}{attr_string(all_attrs.get(nid, {}))}"
            start[nid] = pos
            open_end[nid] = pos + len(head)
            words = self.direct_words(nid)
            if words or self._children[nid]:
                out.append(head + ">" + escape_text(" ".join(words)))
                open_ids.append(nid)
            else:
                out.append(head + "/>")
            pos += len(out[-1])
            end[nid] = pos  # final unless the element is open: close() sets it
        while open_ids:
            close(open_ids.pop())
        return XMLImage("".join(out), start, open_end, end)

    def _serialize_into(
        self, nid: int, out: List[str], indent: bool, depth: int
    ) -> None:
        pad = "  " * depth if indent else ""
        attr_str = attr_string(self.attrs.get(nid, {}))
        items = self.content[nid]
        if not items:
            out.append(f"{pad}<{self.tags[nid]}{attr_str}/>")
            if indent:
                out.append("\n")
            return
        out.append(f"{pad}<{self.tags[nid]}{attr_str}>")
        if indent:
            out.append("\n")
        for item in items:
            if isinstance(item, int):
                self._serialize_into(item, out, indent, depth + 1)
            else:
                text = escape_text(item)
                if indent:
                    text = text.strip()
                    if text:
                        out.append(f"{'  ' * (depth + 1)}{text}\n")
                else:
                    out.append(text)
        out.append(f"{pad}</{self.tags[nid]}>")
        if indent:
            out.append("\n")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Document({self.name!r}, {len(self)} elements, "
            f"{self.n_words} words)"
        )
