"""Generated-input differential for the compiler's For-path prefix.

``repro.query.compiler._prefix_regions`` resolves the prefix of a
compiled For path (``document("D")//a[/b]/c`` before the
``/descendant-or-self::*`` tail) on the stored document's node columns.
Here it must return exactly the region list the reference evaluator
produces when it walks the same steps over the materialised document
tree: same regions, same order, same duplicates (nested matches repeat
once per input node).  The oracle below is that evaluator walk, kept
verbatim as the reference implementation.

Corpora are Hypothesis-generated multi-document stores with mixed
content (``corpus_shapes``) and single documents (``doc_shapes``);
prefixes have 0-3 steps over the tags ``a``/``b``/``c``/``*`` with the
child and descendant axes, an occasional ``descendant-or-self::*``,
``text()`` or ``@attr`` step, and optional predicates.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.trees import SNode
from repro.query import parse_query
from repro.query.compiler import _parse_for_path, _prefix_regions
from repro.query.evaluator import QueryEvaluator
from repro.query.functions import default_registry
from repro.xmldb.store import XMLStore

from .strategies import (
    TAGS,
    build_corpus,
    build_document,
    corpus_shapes,
    doc_shapes,
)

PREDICATES = ["[/b]", '[/text()="red"]', "[//c]", "[not(/a)]",
              '[/*/text()="blue"]']

steps = st.one_of(
    st.tuples(st.sampled_from(["/", "//"]),
              st.sampled_from(TAGS + ["*"]),
              st.sampled_from(["", ""] + PREDICATES)).map("".join),
    st.sampled_from(["/descendant-or-self::*", "/text()", "/@id"]),
)
prefixes = st.lists(steps, max_size=3).map("".join)

#: Every predicate-free two-step prefix: each axis pair meets each tag
#: pair, so nested same-tag matches (duplicates) and an element's own
#: tag on the descendant axis are exercised on every document.
TWO_STEPS = [f"{ax1}{t1}{ax2}{t2}"
             for ax1 in ("/", "//") for t1 in TAGS + ["*"]
             for ax2 in ("/", "//") for t2 in TAGS + ["*"]]


def reference_prefix_regions(store, doc_name, prefix_steps, registry):
    """The evaluator-based prefix walk the compiler used to run."""
    evaluator = QueryEvaluator(store, registry)
    tree = evaluator.doc_tree(doc_name)
    items = [tree.root]
    at_document_node = True
    for step in prefix_steps:
        nxt = []
        for node in items:
            nxt.extend(
                n for n in evaluator._apply_step(
                    node, step, {}, from_document_node=at_document_node
                )
                if isinstance(n, SNode)
            )
        items = nxt
        at_document_node = False
    regions = []
    doc = store.document(doc_name)
    for node in items:
        if node.source is None:
            continue
        _d, nid = node.source
        regions.append((doc.doc_id, doc.starts[nid], doc.ends[nid]))
    return regions


def prefix_steps(doc_name, prefix):
    query = parse_query(
        f'For $v in document("{doc_name}"){prefix}/descendant-or-self::* '
        f'Score $v using ScoreFooExact($v, {{"red"}}) Return $v')
    name, path = _parse_for_path(query.body.clauses[0])
    assert name == doc_name
    return path


def assert_same_regions(store, doc_name, prefix):
    registry = default_registry()
    path = prefix_steps(doc_name, prefix)
    got = _prefix_regions(store, doc_name, path, registry)
    want = reference_prefix_regions(store, doc_name, path, registry)
    assert got == want, (doc_name, prefix)


@given(shapes=corpus_shapes, data=st.data())
@settings(max_examples=150, deadline=None)
def test_corpus_prefix_regions_equal_the_evaluator_walk(shapes, data):
    store = build_corpus(shapes)
    doc_id = data.draw(st.integers(0, len(shapes) - 1), label="doc")
    for prefix in data.draw(st.lists(prefixes, min_size=1, max_size=4),
                            label="prefixes"):
        assert_same_regions(store, f"mixed{doc_id}.xml", prefix)


@given(shape=doc_shapes, prefix=prefixes)
@settings(max_examples=150, deadline=None)
def test_document_prefix_regions_equal_the_evaluator_walk(shape, prefix):
    store = XMLStore()
    store.add_document(build_document(shape, name="prop.xml"))
    for path in [prefix] + TWO_STEPS:
        assert_same_regions(store, "prop.xml", path)
