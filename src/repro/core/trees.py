"""Scored data trees.

A scored data tree (Definition 1) is a rooted ordered tree whose nodes
carry attribute-value pairs including at least a ``tag`` and a real-valued
``score``; the score of the tree is the score of its root.  Unscored trees
are scored trees whose scores are all ``None`` (null).

:class:`SNode` is one node; :class:`STree` wraps a root and caches a
preorder numbering used to rebuild hierarchical relationships among
arbitrary node subsets (witness-tree construction in selection and
projection).  :class:`StoredTree` is the compiled engine's row: a scored
reference to a stored node that builds its :class:`SNode` tree only when
``root`` is read, and otherwise answers :meth:`~STree.to_xml` with a
slice of its document's canonical XML image
(:meth:`~repro.xmldb.document.Document.image`, written once per
document in :meth:`SNode.to_xml`'s form), re-writing only the start tag
when a score is spliced in.

Nodes remember their provenance: ``source = (doc_id, node_id)`` when the
node mirrors a stored element, or ``None`` for constructed nodes such as
``tix_prod_root``.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.xmldb.document import Document
from repro.xmldb.text import attr_string, escape_text, tokenize_text


class SNode:
    """One node of a scored data tree."""

    __slots__ = (
        "tag", "attrs", "score", "source", "children",
        "words", "labels", "order_start", "order_end",
    )

    def __init__(
        self,
        tag: str,
        attrs: Optional[Dict[str, str]] = None,
        score: Optional[float] = None,
        source: Optional[Tuple[int, int]] = None,
        words: Optional[List[str]] = None,
    ):
        self.tag = tag
        self.attrs = attrs or {}
        self.score = score
        self.source = source
        self.children: List[SNode] = []
        #: direct text content, tokenized
        self.words = words or []
        #: pattern labels this node matched (set by selection/projection;
        #: consumed by Threshold and Pick)
        self.labels: set = set()
        # Preorder interval; maintained by STree.renumber().
        self.order_start = -1
        self.order_end = -1

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    def add_child(self, child: "SNode") -> "SNode":
        """Append ``child`` and return it (for chaining)."""
        self.children.append(child)
        return child

    def shallow_copy(self) -> "SNode":
        """Copy of this node without children (labels carried over)."""
        clone = SNode(
            tag=self.tag,
            attrs=dict(self.attrs),
            score=self.score,
            source=self.source,
            words=list(self.words),
        )
        clone.labels = set(self.labels)
        return clone

    def deep_copy(self) -> "SNode":
        """Copy of the whole subtree."""
        clone = self.shallow_copy()
        clone.children = [c.deep_copy() for c in self.children]
        return clone

    # ------------------------------------------------------------------
    # Traversal and content
    # ------------------------------------------------------------------

    def preorder(self) -> Iterator["SNode"]:
        """All nodes of the subtree, document order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def subtree_words(self) -> List[str]:
        """All words in the subtree (the paper's ``alltext()``)."""
        out: List[str] = []
        for node in self.preorder():
            out.extend(node.words)
        return out

    def alltext(self) -> str:
        """Subtree text as one space-joined string."""
        return " ".join(self.subtree_words())

    def find(self, predicate: Callable[["SNode"], bool]) -> List["SNode"]:
        """All subtree nodes satisfying ``predicate``, document order."""
        return [n for n in self.preorder() if predicate(n)]

    def find_by_tag(self, tag: str) -> List["SNode"]:
        """All subtree nodes with the given tag."""
        return self.find(lambda n: n.tag == tag)

    def n_nodes(self) -> int:
        """Size of the subtree."""
        return sum(1 for _ in self.preorder())

    # ------------------------------------------------------------------
    # Ordering (valid after the owning STree ran renumber())
    # ------------------------------------------------------------------

    def is_ancestor_of(self, other: "SNode") -> bool:
        """Strict ancestor test via the cached preorder interval."""
        return (
            self.order_start < other.order_start
            and other.order_end <= self.order_end
        )

    # ------------------------------------------------------------------
    # Serialization (for examples and debugging)
    # ------------------------------------------------------------------

    def to_xml(self, with_scores: bool = False) -> str:
        """Serialize the subtree to XML.  With ``with_scores`` each scored
        node gets a ``score`` attribute (used by the examples to show the
        paper's bracketed scores)."""
        parts: List[str] = []
        self._to_xml(parts, with_scores)
        return "".join(parts)

    def _to_xml(self, out: List[str], with_scores: bool) -> None:
        attrs = dict(self.attrs)
        if with_scores and self.score is not None:
            attrs["score"] = f"{self.score:g}"
        attr_str = attr_string(attrs)
        if not self.children and not self.words:
            out.append(f"<{self.tag}{attr_str}/>")
            return
        out.append(f"<{self.tag}{attr_str}>")
        if self.words:
            out.append(escape_text(" ".join(self.words)))
        for child in self.children:
            child._to_xml(out, with_scores)
        out.append(f"</{self.tag}>")

    def sketch(self) -> str:
        """Compact one-line rendering, e.g. ``article[5.6](author(sname))``.

        Mirrors the figures in the paper: scores in brackets, children in
        parentheses.  Used heavily by the figure-reproduction tests.
        """
        label = self.tag
        if self.score is not None:
            label += f"[{self.score:g}]"
        if not self.children:
            return label
        inner = ",".join(c.sketch() for c in self.children)
        return f"{label}({inner})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        score = f" score={self.score:g}" if self.score is not None else ""
        src = f" src={self.source}" if self.source else ""
        return f"SNode(<{self.tag}>{score}{src} {len(self.children)} children)"


def _stored_to_xml(doc: Document, node_id: int, full: bool,
                   score: Optional[float]) -> str:
    """Slice stored node ``node_id`` out of its document's image
    (:meth:`~repro.xmldb.document.Document.image`), byte for byte what
    :meth:`SNode.to_xml` writes for the tree a :class:`StoredTree`
    builds: only the node's start tag, closed with ``/>``, unless
    ``full``, else its whole substring.  With a ``score`` only the start
    tag is written afresh, the score spliced into its attributes the
    way ``_to_xml`` does it (an existing ``score`` attribute keeps its
    position)."""
    text, start, open_end, end = doc.image()
    if score is None:
        if full:
            return text[start[node_id]:end[node_id]]
        head = text[start[node_id]:open_end[node_id]]
    else:
        attrs = dict(doc.attrs.get(node_id) or {})
        attrs["score"] = f"{score:g}"
        head = f"<{doc.tags[node_id]}{attr_string(attrs)}"
    return head + (text[open_end[node_id]:end[node_id]] if full else "/>")


def _number_preorder(root: SNode) -> None:
    """Assign preorder intervals to every node under ``root``.
    Iterative, so arbitrarily deep trees are fine."""
    counter = 1
    root.order_start = counter
    stack = [(root, iter(root.children))]
    while stack:
        node, children = stack[-1]
        child = next(children, None)
        if child is None:
            stack.pop()
            counter += 1
            node.order_end = counter
        else:
            counter += 1
            child.order_start = counter
            stack.append((child, iter(child.children)))


class STree:
    """A scored data tree: a root node plus cached preorder numbering."""

    def __init__(self, root: SNode):
        self.root = root
        self.renumber()

    @property
    def score(self) -> Optional[float]:
        """Score of the tree = score of its root (Definition 1)."""
        return self.root.score

    @property
    def source(self) -> Optional[Tuple[int, int]]:
        """Provenance of the root (``None`` for a constructed root)."""
        return self.root.source

    def renumber(self) -> None:
        """(Re)assign preorder intervals to every node.  Must be called
        after structural mutation before using ancestor tests."""
        _number_preorder(self.root)

    def nodes(self) -> Iterator[SNode]:
        """All nodes, document order."""
        return self.root.preorder()

    def n_nodes(self) -> int:
        return self.root.n_nodes()

    def deep_copy(self) -> "STree":
        return STree(self.root.deep_copy())

    def to_xml(self, with_scores: bool = False) -> str:
        return self.root.to_xml(with_scores)

    def sketch(self) -> str:
        return self.root.sketch()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"STree({self.root.tag}, {self.n_nodes()} nodes, "
                f"score={self.score})")


class StoredTree(STree):
    """A compiled-plan row: stored node ``node_id`` of ``doc`` with a
    score.  ``full=False`` stands for the single-node tree a scan emits
    (tag and attributes only), ``full=True`` for the whole stored
    subtree.

    ``source`` is captured at construction, because
    :meth:`~repro.xmldb.store.XMLStore.remove_document` renumbers
    ``doc.doc_id`` in place.  The :class:`SNode` tree is built on the
    first read of :attr:`root` (idempotently: a racing build publishes
    an equal tree); until then :meth:`to_xml` slices the document's
    image."""

    __slots__ = ("doc", "node_id", "full", "_score", "_source", "_root")

    def __init__(self, doc: Document, node_id: int,
                 score: Optional[float] = None, full: bool = False):
        self.doc = doc
        self.node_id = node_id
        self.full = full
        self._score = score
        self._source = (doc.doc_id, node_id)
        self._root: Optional[SNode] = None

    @property
    def root(self) -> SNode:  # type: ignore[override]
        root = self._root
        if root is None:
            doc, (doc_id, nid) = self.doc, self._source
            if self.full:
                root = _snode_from_columns(doc, doc_id, nid)
            else:
                root = SNode(doc.tags[nid],
                             attrs=dict(doc.attrs.get(nid, {})),
                             source=self._source)
            root.score = self._score
            _number_preorder(root)
            self._root = root
        return root

    @property
    def score(self) -> Optional[float]:
        """The stored score, or the built root's once :attr:`root` was
        read (a caller may rescore the tree it asked for)."""
        root = self._root
        return self._score if root is None else root.score

    @property
    def source(self) -> Tuple[int, int]:
        return self._source

    def to_xml(self, with_scores: bool = False) -> str:
        if self._root is not None:
            return self._root.to_xml(with_scores)
        return _stored_to_xml(self.doc, self.node_id, self.full,
                              self._score if with_scores else None)


# ----------------------------------------------------------------------
# Conversion from stored documents
# ----------------------------------------------------------------------

def _snode_from_columns(doc: Document, doc_id: int, node_id: int) -> SNode:
    node = SNode(
        tag=doc.tags[node_id],
        attrs=dict(doc.attrs.get(node_id, {})),
        source=(doc_id, node_id),
        words=doc.direct_words(node_id),
    )
    for child_id in doc.children(node_id):
        node.add_child(_snode_from_columns(doc, doc_id, child_id))
    return node


def snode_from_document(doc: Document, node_id: int) -> SNode:
    """Materialize the stored subtree at ``node_id`` as an :class:`SNode`
    tree with provenance links back to the store."""
    return _snode_from_columns(doc, doc.doc_id, node_id)


def tree_from_document(doc: Document, node_id: int = 0) -> STree:
    """Materialize a stored subtree as a full :class:`STree`."""
    return STree(snode_from_document(doc, node_id))


def tree_from_text(tag: str, text: str) -> STree:
    """Build a single-node tree holding tokenized ``text`` (test helper)."""
    return STree(SNode(tag, words=tokenize_text(text)))


def build_minimal_hierarchy(nodes: Sequence[SNode]) -> List[SNode]:
    """Given nodes of one (renumbered) tree, build shallow copies wired to
    preserve their ancestor/descendant relationships, dropping everything
    else — the "witness tree" construction used by scored selection and
    projection.

    Returns the list of roots (nodes with no ancestor within ``nodes``).
    Input order is ignored; output is document order.  Duplicate nodes are
    kept once.
    """
    unique: Dict[int, SNode] = {}
    for n in nodes:
        unique[id(n)] = n
    ordered = sorted(unique.values(),
                     key=lambda n: (n.order_start, -n.order_end))
    roots: List[SNode] = []
    copies: List[SNode] = []
    stack: List[SNode] = []  # originals whose copies are open
    for original in ordered:
        copy = original.shallow_copy()
        copy.order_start = original.order_start
        copy.order_end = original.order_end
        while stack and not stack[-1].is_ancestor_of(original):
            stack.pop()
            copies.pop()
        if stack:
            copies[-1].add_child(copy)
        else:
            roots.append(copy)
        stack.append(original)
        copies.append(copy)
    return roots
