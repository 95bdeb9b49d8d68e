"""Shared hypothesis strategies: random region-encoded documents and
random scored trees."""

from __future__ import annotations

from hypothesis import strategies as st

from repro.core.trees import SNode, STree
from repro.xmldb.builder import DocumentBuilder
from repro.xmldb.store import XMLStore

VOCAB = ["red", "green", "blue", "teal", "gray"]
TAGS = ["a", "b", "c"]

# A document described as a recursive structure:
# node = (tag, text_words, [children])
_node = st.deferred(
    lambda: st.tuples(
        st.sampled_from(TAGS),
        st.lists(st.sampled_from(VOCAB), max_size=4),
        st.lists(_node, max_size=3),
    )
)

doc_shapes = st.tuples(
    st.sampled_from(TAGS),
    st.lists(st.sampled_from(VOCAB), max_size=4),
    st.lists(_node, max_size=4),
)


def build_document(shape, name="prop.xml", doc_id=0):
    """Materialize a shape drawn from ``doc_shapes`` as a Document."""
    b = DocumentBuilder()

    def emit(node):
        tag, words, children = node
        b.start_element(tag)
        if words:
            b.text(" ".join(words))
        for child in children:
            emit(child)
        b.end_element()

    emit(shape)
    return b.finish(name, doc_id)


# Mixed content: a node's items are word runs and child elements in any
# order, so direct text can *trail* a child (its words then have a larger
# position but a smaller node id than the child's words).  Word runs are
# lists, child nodes tuples.
_mixed_items = st.deferred(
    lambda: st.lists(
        st.one_of(
            st.lists(st.sampled_from(VOCAB), min_size=1, max_size=3),
            st.tuples(st.sampled_from(TAGS), _mixed_items),
        ),
        max_size=4,
    )
)

mixed_doc_shapes = st.tuples(st.sampled_from(TAGS), _mixed_items)

#: A small multi-document corpus.
corpus_shapes = st.lists(mixed_doc_shapes, min_size=1, max_size=4)


def build_mixed_document(shape, name="mixed.xml", doc_id=0):
    """Materialize a shape drawn from ``mixed_doc_shapes``."""
    b = DocumentBuilder()

    def emit(node):
        tag, items = node
        b.start_element(tag)
        for item in items:
            if isinstance(item, tuple):
                emit(item)
            else:
                b.text(" ".join(item))
        b.end_element()

    emit(shape)
    return b.finish(name, doc_id)


def build_corpus(shapes) -> XMLStore:
    """A store holding one mixed-content document per shape."""
    store = XMLStore()
    for doc_id, shape in enumerate(shapes):
        store.add_document(build_mixed_document(
            shape, name=f"mixed{doc_id}.xml", doc_id=doc_id))
    return store


def build_stree(shape) -> STree:
    """Materialize a shape as a scored tree (unscored)."""

    def emit(node) -> SNode:
        tag, words, children = node
        snode = SNode(tag, words=list(words))
        for child in children:
            snode.add_child(emit(child))
        return snode

    return STree(emit(shape))


scored_tree_shapes = st.tuples(
    doc_shapes,
    st.lists(st.floats(min_value=0.0, max_value=3.0,
                       allow_nan=False), min_size=1, max_size=64),
)


def build_scored_stree(shape_and_scores) -> STree:
    """A scored tree whose node scores cycle through the drawn floats."""
    shape, scores = shape_and_scores
    tree = build_stree(shape)
    for i, node in enumerate(tree.nodes()):
        node.score = scores[i % len(scores)]
    return tree
