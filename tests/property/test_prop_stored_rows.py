"""Generated-input differential for the compiled engine's row type.

A compiled plan's rows are :class:`~repro.core.trees.StoredTree`
references ``(document, node, score)``: the scan emits single-node rows,
``Materialize`` marks them ``full``, and an answer's XML is a slice of
the document's image.  Each row must be indistinguishable from the
:class:`~repro.core.trees.STree` the engine used to build for it:

- the slice returns, for every node and both ``with_scores`` values, the
  bytes ``SNode.to_xml`` writes for that tree, and the bytes the
  per-row column writer it replaced wrote (kept below as
  :func:`column_writer`) — attribute names include ``score`` (the
  spliced score keeps its position) and values include ``&<>"``;
- ``root``, built on first read, has the same preorder tags,
  attributes, words, sources, scores and numbering, and the same
  ``sketch()``, as ``tree_from_document`` with the row's score;
- ``source`` and the XML of a held row do not change when the store
  renumbers its document after removing an earlier one.
"""

from typing import List, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.trees import SNode, STree, StoredTree, tree_from_document
from repro.engine import Materialize
from repro.engine.base import Operator, execute
from repro.resilience import QueryGuard, guarded
from repro.xmldb.builder import DocumentBuilder
from repro.xmldb.document import Document
from repro.xmldb.store import XMLStore
from repro.xmldb.text import escape_attr, escape_text

from .strategies import build_corpus, mixed_doc_shapes

attr_maps = st.dictionaries(
    st.sampled_from(["id", "score", "lang"]),
    st.text(alphabet='&<>"ab', max_size=4),
    max_size=3,
)
scores = st.one_of(
    st.none(), st.floats(allow_nan=False, allow_infinity=False))


def build_attr_document(shape, attrs, name="attrs.xml", doc_id=0):
    """A ``mixed_doc_shapes`` document whose elements cycle through the
    drawn attribute maps."""
    b = DocumentBuilder()
    counter = [0]

    def emit(node):
        tag, items = node
        b.start_element(tag, dict(attrs[counter[0] % len(attrs)]))
        counter[0] += 1
        for item in items:
            if isinstance(item, tuple):
                emit(item)
            else:
                b.text(" ".join(item))
        b.end_element()

    emit(shape)
    return b.finish(name, doc_id)


def column_writer(doc: Document, node_id: int, full: bool,
                  score: Optional[float]) -> str:
    """The per-row writer the image slice replaced, verbatim: it wrote
    a stored row from the document columns, walking the subtree."""
    tags, levels, all_attrs = doc.tags, doc.levels, doc.attrs
    last = doc.last_descendant(node_id) if full else node_id
    out: List[str] = []
    open_ids: List[int] = []
    for nid in range(node_id, last + 1):
        level = levels[nid]
        while open_ids and levels[open_ids[-1]] >= level:
            out.append(f"</{tags[open_ids.pop()]}>")
        attrs = all_attrs.get(nid)
        if score is not None and nid == node_id:
            attrs = dict(attrs or {})
            attrs["score"] = f"{score:g}"
        attr_str = "".join(
            f' {k}="{escape_attr(str(v))}"' for k, v in attrs.items()
        ) if attrs else ""
        tag = tags[nid]
        words = doc.direct_words(nid) if full else None
        has_children = full and doc.n_children(nid) > 0
        if not has_children and not words:
            out.append(f"<{tag}{attr_str}/>")
            continue
        out.append(f"<{tag}{attr_str}>")
        if words:
            out.append(escape_text(" ".join(words)))
        if has_children:
            open_ids.append(nid)
        else:
            out.append(f"</{tag}>")
    while open_ids:
        out.append(f"</{tags[open_ids.pop()]}>")
    return "".join(out)


def materialised(doc, node_id, score):
    """The tree ``Materialize`` used to build for a scan row."""
    tree = tree_from_document(doc, node_id)
    tree.root.score = score
    return tree


def scanned(doc, node_id, score):
    """The single-node tree the scan used to build."""
    return STree(SNode(doc.tags[node_id],
                       attrs=dict(doc.attrs.get(node_id, {})),
                       score=score, source=(doc.doc_id, node_id)))


def preorder(tree):
    return [(n.tag, list(n.attrs.items()), n.words, n.source, n.score,
             n.labels, n.order_start, n.order_end) for n in tree.nodes()]


class _Rows(Operator):
    def __init__(self, rows):
        super().__init__()
        self._rows = list(rows)

    def _next(self):
        return self._rows.pop(0) if self._rows else None


@given(shape=mixed_doc_shapes,
       attrs=st.lists(attr_maps, min_size=1, max_size=4), score=scores)
@settings(max_examples=200, deadline=None)
def test_column_writer_equals_the_tree_writer(shape, attrs, score):
    doc = build_attr_document(shape, attrs)
    for n in range(len(doc)):
        full = materialised(doc, n, score)
        single = scanned(doc, n, score)
        for ws in (False, True):
            assert (StoredTree(doc, n, score, full=True).to_xml(ws)
                    == full.to_xml(ws)), (n, ws)
            assert (StoredTree(doc, n, score).to_xml(ws)
                    == single.to_xml(ws)), (n, ws)


@given(shape=mixed_doc_shapes,
       attrs=st.lists(attr_maps, min_size=1, max_size=4), score=scores)
@settings(max_examples=200, deadline=None)
def test_slice_equals_the_column_writer(shape, attrs, score):
    doc = build_attr_document(shape, attrs)
    for n in range(len(doc)):
        for full in (False, True):
            row = StoredTree(doc, n, score, full=full)
            assert row.to_xml() == column_writer(doc, n, full, None), (
                n, full)
            assert row.to_xml(with_scores=True) == column_writer(
                doc, n, full, score), (n, full)
    text, start, _, end = doc.image()
    assert text == column_writer(doc, 0, True, None)
    assert (start[0], end[0]) == (0, len(text))


@given(shape=mixed_doc_shapes,
       attrs=st.lists(attr_maps, min_size=1, max_size=4),
       row_scores=st.lists(scores, min_size=1, max_size=6))
@settings(max_examples=150, deadline=None)
def test_lazy_root_equals_the_materialised_tree(shape, attrs, row_scores):
    store = XMLStore()
    doc = store.add_document(build_attr_document(shape, attrs))

    def score_of(n):
        return row_scores[n % len(row_scores)]

    rows = [StoredTree(doc, n, score_of(n)) for n in range(len(doc))]
    for n, row in enumerate(rows):
        want = scanned(doc, n, score_of(n))
        assert preorder(row) == preorder(want)
        assert row.sketch() == want.sketch()
    with guarded(QueryGuard()) as g:
        out = execute(Materialize(_Rows(rows)))
    assert g.materialized == len(doc)
    assert len(out) == len(doc)
    for n, row in enumerate(out):
        want = materialised(doc, n, score_of(n))
        assert isinstance(row, StoredTree) and row.full
        assert row.source == (doc.doc_id, n)
        assert row.score == want.score
        from_columns = row.to_xml(with_scores=True)
        assert preorder(row) == preorder(want)
        assert row.sketch() == want.sketch()
        # once built, the row writes through its tree: same bytes
        assert row.to_xml(with_scores=True) == from_columns


@given(shapes=st.lists(mixed_doc_shapes, min_size=2, max_size=4),
       data=st.data())
@settings(max_examples=100, deadline=None)
def test_held_rows_survive_renumbering(shapes, data):
    store = build_corpus(shapes)
    victim = data.draw(st.integers(0, len(shapes) - 2), label="victim")
    held = data.draw(st.integers(victim + 1, len(shapes) - 1), label="held")
    doc = store.document(held)
    n = data.draw(st.integers(0, len(doc) - 1), label="node")
    rows = [StoredTree(doc, n, 1.5), StoredTree(doc, n, 1.5, full=True)]
    before = [(r.to_xml(), r.to_xml(with_scores=True)) for r in rows]
    store.remove_document(victim)
    assert doc.doc_id == held - 1  # the store renumbered the document
    for row, (xml, scored_xml) in zip(rows, before):
        assert row.source == (held, n)
        assert row.to_xml() == xml
        assert row.to_xml(with_scores=True) == scored_xml
        assert {node.source[0] for node in row.nodes()} == {held}
        assert row.to_xml(with_scores=True) == scored_xml
