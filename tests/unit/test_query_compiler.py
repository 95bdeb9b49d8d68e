"""Unit tests for the plan compiler: compilable shapes, rejections, and
evaluator equivalence."""

import pytest

from repro.errors import QueryCompileError
from repro.query import parse_query, run_query
from repro.engine import execute, explain
from repro.query.compiler import compile_query
from repro.xmldb.store import XMLStore


@pytest.fixture()
def store():
    return XMLStore.from_sources({
        "d.xml": (
            "<lib>"
            "<shelf kind='db'><b><t>relational databases</t>"
            "<body>tables and queries</body></b></shelf>"
            "<shelf kind='ir'><b><t>retrieval</t>"
            "<body>ranking queries and scores</body></b></shelf>"
            "</lib>"
        ),
    })


COMPILABLE = '''
For $a in document("d.xml")//shelf/descendant-or-self::*
Score $a using ScoreFooExact($a, {"queries"}, {"ranking"})
Return <r><score>{ $a/@score }</score>{ $a }</r>
Sortby(score)
Threshold $a/@score > 0.5 stop after 3
'''


class TestCompilation:
    def test_compiles_and_explains(self, store):
        text = explain(compile_query(store, parse_query(COMPILABLE)))
        assert "termjoin-scan" in text
        assert "structural-filter" in text
        assert "top-k(3)" in text  # Sortby + stop-after fuse to a heap

    def test_matches_evaluator(self, store):
        ev = run_query(store, COMPILABLE)
        ev_scores = sorted(t.score for t in ev)
        comp = execute(compile_query(store, parse_query(COMPILABLE)))
        comp_scores = sorted(t.score for t in comp)
        assert ev_scores == pytest.approx(comp_scores)
        assert len(comp) == len(ev)

    def test_structural_filter_restricts(self, store):
        query = '''
        For $a in document("d.xml")//shelf/descendant-or-self::*
        Score $a using ScoreFooExact($a, {"ranking"})
        Return $a
        Sortby(score)
        Threshold $a/@score > 0 stop after 10
        '''
        comp = execute(compile_query(store, parse_query(query)))
        # 'ranking' appears only under the second shelf
        doc = store.document("d.xml")
        for t in comp:
            assert t.root.source is not None
            # every result node is within a shelf region
            nid = t.root.source[1]
            anc_tags = [doc.tags[a] for a in doc.ancestors(nid)]
            assert "shelf" in anc_tags or doc.tags[nid] == "shelf"

    def test_materializes_subtrees(self, store):
        comp = execute(compile_query(store, parse_query(COMPILABLE)))
        assert any(t.n_nodes() > 1 for t in comp)


def _regions(plan):
    op = plan
    while op.name != "structural-filter":
        op = op.children[0]
    return op.regions


class TestNoVolumeTree:
    """The For-path prefix is resolved on the stored columns: compiling
    builds no tree of the volume, and a predicate step materialises only
    its candidates' own subtrees."""

    @pytest.fixture()
    def articles(self, monkeypatch):
        from repro.core import trees
        from repro.exampledata import example_store
        from repro.query.evaluator import QueryEvaluator

        def forbidden(*_args, **_kwargs):
            raise AssertionError("compile materialised the volume")

        monkeypatch.setattr(QueryEvaluator, "doc_tree", forbidden)
        monkeypatch.setattr(trees, "tree_from_document", forbidden)
        return example_store()

    @staticmethod
    def query(prefix):
        return parse_query(
            f'For $a in document("articles.xml"){prefix}'
            f'/descendant-or-self::* '
            f'Score $a using ScoreFooExact($a, {{"search"}}) Return $a')

    def test_predicate_free_prefix_builds_no_tree(self, articles):
        plan = compile_query(articles, self.query("//article"))
        doc = articles.document("articles.xml")
        assert _regions(plan) == [(doc.doc_id, doc.starts[0], doc.ends[0])]

    def test_predicate_materialises_only_candidates(self, articles,
                                                    monkeypatch):
        import repro.query.compiler as compiler

        materialised = []
        real = compiler.snode_from_document

        def counting(doc, node_id):
            materialised.append(node_id)
            return real(doc, node_id)

        monkeypatch.setattr(compiler, "snode_from_document", counting)
        plan = compile_query(articles, self.query("//chapter[/section]"))
        doc = articles.document("articles.xml")
        chapters = doc.find_by_tag("chapter")
        assert materialised == chapters  # each candidate once, nothing else
        last = chapters[-1]  # the only chapter holding sections
        assert _regions(plan) == [
            (doc.doc_id, doc.starts[last], doc.ends[last])]


class TestRejections:
    def reject(self, store, query, match):
        with pytest.raises(QueryCompileError, match=match):
            compile_query(store, parse_query(query))

    def test_pick_not_compilable(self, store):
        self.reject(store, '''
            For $a in document("d.xml")//shelf/descendant-or-self::*
            Score $a using ScoreFooExact($a, {"queries"})
            Pick $a using PickFoo($a)
            Return $a
        ''', "not compilable")

    def test_needs_descendant_or_self_tail(self, store):
        self.reject(store, '''
            For $a in document("d.xml")//shelf
            Score $a using ScoreFooExact($a, {"queries"})
            Return $a
        ''', "descendant-or-self")

    def test_needs_document_root(self, store):
        self.reject(store, '''
            For $a in $b/descendant-or-self::*
            Score $a using ScoreFooExact($a, {"queries"})
            Return $a
        ''', "document")

    def test_multiword_phrase_uses_phrasejoin(self, store):
        # multi-word phrases lower onto PhraseJoin instead of TermJoin
        text = explain(compile_query(store, parse_query('''
            For $a in document("d.xml")//shelf/descendant-or-self::*
            Score $a using ScoreFooExact($a, {"relational databases"})
            Return $a
            Sortby(score)
        ''')))
        assert "PhraseJoin" in text

    def test_multiword_phrase_results(self, store):
        comp = execute(compile_query(store, parse_query('''
            For $a in document("d.xml")//shelf/descendant-or-self::*
            Score $a using ScoreFooExact($a, {"relational databases"})
            Return $a
            Sortby(score)
            Threshold $a/@score > 0 stop after 5
        ''')))
        assert comp
        # only the db shelf's subtree contains the phrase
        tags = sorted(t.root.tag for t in comp)
        assert tags == ["b", "shelf", "t"]

    def test_score_without_factory_rejected(self, store):
        self.reject(store, '''
            For $a in document("d.xml")//shelf/descendant-or-self::*
            Score $a using ScoreFoo($a, {"queries"})
            Return $a
        ''', "factory")

    def test_missing_score_clause(self, store):
        self.reject(store, '''
            For $a in document("d.xml")//shelf/descendant-or-self::*
            Return $a
        ''', "For \\+ Score")

    def test_complex_threshold_rejected(self, store):
        self.reject(store, '''
            For $a in document("d.xml")//shelf/descendant-or-self::*
            Score $a using ScoreFooExact($a, {"queries"})
            Return $a
            Threshold $a/pages > 4
        ''', "Threshold")

    def test_non_flwor_rejected(self, store):
        with pytest.raises(QueryCompileError, match="FLWOR"):
            compile_query(store, parse_query('<x>hi</x>'))

    def test_greater_or_equal_threshold_rejected(self, store):
        # the scan keeps score > V only, so >= must not compile
        self.reject(store, GE_THRESHOLD, "Threshold")


# Rows scoring exactly 0.8 exist (three of them), so >= and > differ.
GE_THRESHOLD = '''
For $a in document("d.xml")//shelf/descendant-or-self::*
Score $a using ScoreFooExact($a, {"queries"}, {"ranking"})
Return $a
Sortby(score)
Threshold $a/@score >= 0.8
'''


def test_greater_or_equal_threshold_keeps_rows_at_the_bound(store):
    """Regression: ``>=`` was compiled as ``>``, so the served path
    dropped every row scoring exactly the bound."""
    from repro.resilience import run_query_guarded
    from repro.server import PooledClient, QueryServer

    expected = sorted(t.score for t in run_query(store, GE_THRESHOLD))
    assert expected == [0.8] * 3 + [1.4] * 3
    res = run_query_guarded(store, GE_THRESHOLD)
    assert sorted(t.score for t in res.results) == expected
    assert res.plan is None  # evaluator fallback
    with QueryServer(store, port=0) as server, \
            PooledClient(server.host, server.port,
                         call_timeout_s=30.0) as client:
        served = client.query(GE_THRESHOLD, with_scores=True)
    assert sorted(r.score for r in served.rows) == expected


def _volume(n):
    return (f"<vol><art><t>xml data {n}</t>"
            + "<sec>xml xml data</sec>" * n
            + "<sec>text only</sec></art></vol>")


@pytest.mark.parametrize("items", ['{"xml"}, {"data"}', '{"xml data"}'])
def test_scan_reads_only_the_named_document(items):
    """The For path's document is pushed into the access method: the
    scan's ``postings_scanned`` counts that document's postings alone,
    not the corpus's."""
    from repro.engine.base import execute, plan_nodes

    store = XMLStore.from_sources(
        {f"v{n}.xml": _volume(n) for n in (1, 2, 3)})
    for name in ("v1.xml", "v2.xml", "v3.xml"):
        doc_id = store.document(name).doc_id
        want = sum(
            len(store.index.postings(t).postings.for_document(doc_id))
            for t in ("xml", "data"))
        assert want < sum(len(store.index.postings(t))
                          for t in ("xml", "data"))
        plan = compile_query(store, parse_query(
            f'For $a in document("{name}")//art/descendant-or-self::*\n'
            f'Score $a using ScoreFooExact($a, {items})\n'
            f'Return $a\nSortby(score)'))
        got = execute(plan)
        assert got and all(t.doc.doc_id == doc_id for t in got)
        scan = next(n for n in plan_nodes(plan)
                    if n["operator"] == "termjoin-scan")
        assert scan["counters"]["postings_scanned"] == want, name
