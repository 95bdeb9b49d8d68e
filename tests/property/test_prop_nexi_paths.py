"""Generated-input differential for NEXI path matching and scoring.

``NexiEvaluator`` matches a query's descendant-step tag path and scores
it in one pass per step over each document's columns: step *i* keeps the
elements with a strict ancestor kept by step *i-1*, at the best such
ancestor's partial score plus their own predicate score.  Here its hits
must equal — same order, same float scores — the reference below, which
enumerates every full path match by brute force (nested loops with
region-containment strict-ancestor checks), scores each match by summing
its steps' predicate scores in step order (a score <= 0 kills the
match), and keeps each target's best match.  The reference is kept
verbatim as the definition of NEXI's "sum per match, max per target".

Stores are Hypothesis-generated multi-document corpora (``doc_shapes``);
queries are CO term lists and CAS paths of 1-4 steps over ``a``/``b``/
``c``/``*`` (repeated tags included) with ``about`` predicates, relative
``about`` paths, phrases, ``and``/``or`` and an optional ``top_k``.
Nested chains of 4-8 elements meet 3-4-step scored queries, where the
summation order shows in the floats, and a pinned deep nested-``sec``
document makes every ancestor combination count.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nexi import NexiHit, parse_nexi, run_nexi
from repro.nexi.evaluator import NexiEvaluator
from repro.xmldb.store import XMLStore

from .strategies import TAGS, VOCAB, build_document, doc_shapes


def reference_hits(store, query, top_k=None):
    """Every linear path match by brute force, then per-match scoring."""
    evaluator = NexiEvaluator(store)
    steps = query.steps
    structural = all(step.predicate is None for step in steps)
    best = {}
    for doc in store.documents():
        def candidates(tag):
            return [n for n in range(len(doc))
                    if tag == "*" or doc.tags[n] == tag]

        matches = [[n] for n in candidates(steps[0].tag)]
        for step in steps[1:]:
            matches = [
                match + [n]
                for match in matches
                for n in candidates(step.tag)
                if doc.is_ancestor(match[-1], n)
            ]
        for match in matches:
            key = (doc.doc_id, match[-1])
            if structural:
                best[key] = 0.0
                continue
            score = 0.0
            dead = False
            for step, node_id in zip(steps, match):
                if step.predicate is None:
                    continue
                s = evaluator.score_predicate(step.predicate, doc, node_id)
                if s <= 0.0:
                    dead = True
                    break
                score += s
            if dead:
                continue
            if score > best.get(key, -1.0):
                best[key] = score
    if structural:
        hits = sorted((NexiHit(d, n, 0.0) for d, n in best),
                      key=lambda h: (h.doc_id, h.node_id))
    else:
        hits = [NexiHit(d, n, s) for (d, n), s in best.items() if s > 0.0]
        hits.sort(key=lambda h: (-h.score, h.doc_id, h.node_id))
    return hits[:top_k]


def make_store(shapes) -> XMLStore:
    store = XMLStore()
    for doc_id, shape in enumerate(shapes):
        store.add_document(
            build_document(shape, name=f"d{doc_id}.xml", doc_id=doc_id))
    return store


words = st.sampled_from(VOCAB)
term_lists = st.lists(
    st.one_of(words, st.tuples(words, words).map(
        lambda pair: '"' + " ".join(pair) + '"')),
    min_size=1, max_size=3,
).map(" ".join)
abouts = st.builds(
    lambda rel, terms: f"about(.{''.join('//' + t for t in rel)}, {terms})",
    st.lists(st.sampled_from(TAGS), max_size=2), term_lists,
)
predicates = st.one_of(
    st.just(""),
    abouts.map("[{}]".format),
    st.tuples(abouts, st.sampled_from([" and ", " or "]), abouts)
    .map(lambda t: "[" + "".join(t) + "]"),
)
cas_queries = st.lists(
    st.tuples(st.sampled_from(TAGS + ["*"]), predicates)
    .map(lambda step: "//" + step[0] + step[1]),
    min_size=1, max_size=4,
).map("".join)
queries = st.one_of(term_lists, cas_queries, cas_queries)
cutoffs = st.one_of(st.none(), st.integers(min_value=1, max_value=5))


@given(shapes=st.lists(doc_shapes, min_size=1, max_size=3),
       source=queries, top_k=cutoffs)
@settings(max_examples=300, deadline=None)
def test_hits_equal_brute_force_path_matches(shapes, source, top_k):
    store = make_store(shapes)
    expected = reference_hits(store, parse_nexi(source), top_k)
    assert run_nexi(store, source, top_k=top_k) == expected


def nest(levels):
    """A ``doc_shapes`` shape nesting ``levels`` (tag, words) pairs, each
    with a text-only sibling leaf."""
    shape = None
    for tag, words_ in reversed(levels):
        children = [] if shape is None else [shape, (tag, words_[:1], [])]
        shape = (tag, words_, children)
    return shape


deep_shapes = st.lists(
    st.tuples(st.sampled_from(TAGS),
              st.lists(words, min_size=1, max_size=4)),
    min_size=4, max_size=8,
).map(nest)
scored_steps = st.tuples(
    st.sampled_from(TAGS + ["*"] * 3),
    st.one_of(term_lists.map("[about(., {})]".format),
              term_lists.map("[about(., {})]".format), predicates),
).map(lambda step: "//" + step[0] + step[1])
deep_queries = st.lists(scored_steps, min_size=3, max_size=4).map("".join)


@given(shapes=st.lists(deep_shapes, min_size=1, max_size=2),
       source=deep_queries, top_k=cutoffs)
@settings(max_examples=150, deadline=None)
def test_deep_chains_equal_brute_force_path_matches(shapes, source, top_k):
    # Three or more scored steps on nested elements: the only place a
    # summation out of step order changes a float.
    store = make_store(shapes)
    expected = reference_hits(store, parse_nexi(source), top_k)
    assert run_nexi(store, source, top_k=top_k) == expected


#: Seven nested sections, each with its own text: every ancestor
#: combination is a distinct path match, with distinct step scores.
DEEP_XML = (
    "<article>"
    + "".join(f"<sec>{w} " for w in
              ["red", "red green", "blue", "teal red", "green",
               "red blue", "gray green"])
    + "</sec>" * 7
    + "<sec>red green blue</sec></article>"
)

DEEP_QUERIES = [
    "//sec//sec",
    "//sec//sec//sec[about(., red)]",
    "//sec[about(., green)]//sec[about(., red blue)]//sec[about(., red)]",
    "//article[about(., teal)]//sec[about(., blue)]//*[about(., green)]",
    '//sec[about(., "red green" blue)]//sec//sec[about(., red) or '
    "about(., gray)]",
    "//sec[about(.//sec, teal) and about(., gray)]//sec[about(., red)]",
]


def test_deep_nested_sections_equal_brute_force():
    store = XMLStore()
    store.load("deep.xml", DEEP_XML)
    for source in DEEP_QUERIES:
        for top_k in (None, 1, 3):
            expected = reference_hits(store, parse_nexi(source), top_k)
            assert run_nexi(store, source, top_k=top_k) == expected, source
    assert run_nexi(store, DEEP_QUERIES[2])  # non-vacuous
