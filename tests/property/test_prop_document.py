"""Property tests: region-numbering invariants on random documents."""

from hypothesis import given, settings

from repro.xmldb.parser import parse_document

from .strategies import (
    build_document,
    build_mixed_document,
    doc_shapes,
    mixed_doc_shapes,
)


@given(doc_shapes)
@settings(max_examples=80)
def test_regions_nest_properly(shape):
    doc = build_document(shape)
    for nid in range(len(doc)):
        parent = doc.parents[nid]
        if parent >= 0:
            assert doc.starts[parent] < doc.starts[nid]
            assert doc.ends[nid] < doc.ends[parent]
            assert doc.levels[nid] == doc.levels[parent] + 1


@given(doc_shapes)
@settings(max_examples=80)
def test_region_keys_unique_and_increasing(shape):
    doc = build_document(shape)
    keys = sorted(doc.starts + doc.ends + doc.word_pos)
    assert len(keys) == len(set(keys))
    assert doc.starts == sorted(doc.starts)  # preorder ids


@given(doc_shapes)
@settings(max_examples=80)
def test_descendant_range_equals_containment(shape):
    doc = build_document(shape)
    for nid in range(len(doc)):
        by_range = set(doc.descendants(nid))
        by_region = {
            other for other in range(len(doc))
            if doc.is_ancestor(nid, other)
        }
        assert by_range == by_region


@given(doc_shapes)
@settings(max_examples=80)
def test_subtree_words_equal_descendant_direct_words(shape):
    doc = build_document(shape)
    for nid in range(len(doc)):
        collected = []
        for member in doc.subtree(nid):
            collected.extend(doc.direct_words(member))
        # direct words concatenated in id order == flat slice, because
        # word table is in document order and ids are preorder
        assert sorted(collected) == sorted(doc.subtree_words(nid))


@given(mixed_doc_shapes)
@settings(max_examples=100)
def test_direct_words_equal_the_word_node_filter(shape):
    # mixed content: a node's direct text may trail its children
    doc = build_mixed_document(shape)
    for nid in range(len(doc)):
        lo, hi = doc.word_slice(nid)
        assert doc.direct_words(nid) == [
            doc.word_terms[i] for i in range(lo, hi)
            if doc.word_node[i] == nid
        ]


def _joined_runs(shape):
    """``shape`` as its serialization parses back: text runs with no
    element between them are written back to back, so they return as
    one text segment (``red`` then ``blue`` reads as ``redblue``)."""
    tag, items = shape
    out = []
    for item in items:
        if isinstance(item, tuple):
            out.append(_joined_runs(item))
        elif out and isinstance(out[-1], list):
            out[-1] = [" ".join(out[-1]) + " ".join(item)]
        else:
            out.append(item)
    return tag, out


COLUMNS = ("tags", "starts", "ends", "levels", "parents", "attrs",
           "content", "word_terms", "word_pos", "word_node", "word_offset",
           "word_slices")


@given(mixed_doc_shapes)
@settings(max_examples=100)
def test_serialize_parse_roundtrip(shape):
    # persist.load_store and workload.relevance re-parse serialize()
    doc = build_mixed_document(shape)
    again = parse_document(doc.serialize(), name=doc.name)
    expected = build_mixed_document(_joined_runs(shape))
    for column in COLUMNS:
        assert getattr(again, column) == getattr(expected, column), column


@given(doc_shapes)
@settings(max_examples=80)
def test_ancestors_of_pos_consistent(shape):
    doc = build_document(shape)
    for i in range(doc.n_words):
        occ = doc.word_occurrence(i)
        chain = doc.ancestors_of_pos(occ.pos)
        assert chain[-1] == occ.node_id
        for anc in chain[:-1]:
            assert doc.is_ancestor(anc, occ.node_id)
