"""Unit tests for the NEXI front end (parser + evaluator)."""

import pytest

from repro import cli
from repro.errors import QuerySyntaxError
from repro.exampledata import ARTICLES_XML, example_store
from repro.nexi import (
    AboutClause,
    BoolOp,
    NexiStep,
    parse_nexi,
    run_nexi,
)


@pytest.fixture(scope="module")
def store():
    return example_store()


class TestParser:
    def test_content_only(self):
        q = parse_nexi('"search engine" ranking internet')
        assert len(q.steps) == 1
        assert q.steps[0].tag == "*"
        about = q.steps[0].predicate
        assert isinstance(about, AboutClause)
        assert about.phrases == ("search engine", "ranking", "internet")
        assert about.relative == ()

    def test_co_keywords_are_terms(self):
        q = parse_nexi("war and peace")
        assert q.steps[0].predicate.phrases == ("war", "and", "peace")

    def test_simple_cas(self):
        q = parse_nexi('//article[about(., "search engine")]')
        (step,) = q.steps
        assert step.tag == "article"
        assert step.predicate.relative == ()

    def test_relative_path(self):
        q = parse_nexi('//article[about(.//sec//p, xml)]')
        assert q.steps[0].predicate.relative == ("sec", "p")

    def test_multi_step_path(self):
        q = parse_nexi('//article//sec[about(., xml)]')
        assert [s.tag for s in q.steps] == ["article", "sec"]
        assert q.steps[0].predicate is None
        assert q.steps[1].predicate is not None

    def test_wildcard_step(self):
        q = parse_nexi('//article//*[about(., xml)]')
        assert q.steps[1].tag == "*"

    def test_and_combination(self):
        q = parse_nexi(
            '//article[about(.//t, apple) and about(.//b, pie)]'
        )
        pred = q.steps[0].predicate
        assert isinstance(pred, BoolOp) and pred.op == "and"
        assert len(pred.operands) == 2

    def test_or_combination(self):
        q = parse_nexi('//a[about(., x) or about(., y)]')
        assert q.steps[0].predicate.op == "or"

    def test_mixed_needs_parens(self):
        with pytest.raises(QuerySyntaxError, match="parentheses"):
            parse_nexi('//a[about(., x) and about(., y) or about(., z)]')
        q = parse_nexi(
            '//a[about(., x) and (about(., y) or about(., z))]'
        )
        assert q.steps[0].predicate.op == "and"

    @pytest.mark.parametrize("bad", [
        "", "//", "//a[about(., )]", "//a[about(x, y)]",
        "//a[about(., x)", "//a[]", "//a[about(., x) nonsense]",
    ])
    def test_syntax_errors(self, bad):
        with pytest.raises(QuerySyntaxError):
            parse_nexi(bad)


class TestEvaluator:
    def test_cas_finds_relevant_sections(self, store):
        hits = run_nexi(
            store, '//article//section[about(., "search engine")]'
        )
        doc = store.document("articles.xml")
        tags = [doc.tags[h.node_id] for h in hits]
        assert tags and set(tags) == {"section"}
        assert all(h.score > 0 for h in hits)

    def test_co_ranks_article_first(self, store):
        hits = run_nexi(
            store,
            '"search engine" internet "information retrieval"',
            top_k=3,
        )
        doc = store.document("articles.xml")
        assert doc.tags[hits[0].node_id] == "article"
        scores = [h.score for h in hits]
        assert scores == sorted(scores, reverse=True)

    def test_outer_predicate_contributes_to_target_score(self, store):
        alone = run_nexi(store, '//p[about(., "search engine")]')
        with_ctx = run_nexi(
            store,
            '//article[about(.//section-title, retrieval)]'
            '//p[about(., "search engine")]',
        )
        a = {h.node_id: h.score for h in alone}
        w = {h.node_id: h.score for h in with_ctx}
        assert w.keys() <= a.keys()
        for nid in w:
            assert w[nid] > a[nid]  # article-level about adds score

    def test_and_zeroes_when_one_side_missing(self, store):
        hits = run_nexi(
            store,
            '//section[about(., "search engine") and about(., zzz)]',
        )
        assert hits == []

    def test_or_takes_best_side(self, store):
        hits = run_nexi(
            store,
            '//section[about(., "search engine") or about(., zzz)]',
        )
        assert hits
        both = run_nexi(store, '//section[about(., "search engine")]')
        assert {h.node_id for h in hits} == {h.node_id for h in both}

    def test_structural_only(self, store):
        hits = run_nexi(store, "//article//section")
        assert len(hits) == 3
        assert all(h.score == 0.0 for h in hits)

    def test_top_k(self, store):
        hits = run_nexi(store, 'search retrieval internet', top_k=2)
        assert len(hits) == 2

    @pytest.mark.parametrize("bad", [0, -1, -2, 2.5, True])
    def test_non_positive_top_k_raises(self, store, bad):
        # ``hits[:top_k]`` made -1 drop the last hit and 0 return none.
        with pytest.raises(ValueError, match="positive int"):
            run_nexi(store, "//*", top_k=bad)
        assert len(run_nexi(store, "//*")) == 33

    def test_no_matches(self, store):
        assert run_nexi(store, '//nosuchtag[about(., x)]') == []

    def test_cross_document(self, store):
        hits = run_nexi(store, '//review[about(., technologies)]')
        doc = store.document("reviews.xml")
        assert {doc.tags[h.node_id] for h in hits} == {"review"}
        assert all(h.doc_id == 1 for h in hits)


class TestCli:
    """``tix nexi`` on the articles example, through ``cli.main``."""

    QUERY = '//article//section[about(., "search engine")]'

    @pytest.fixture()
    def doc_arg(self, tmp_path):
        path = tmp_path / "articles.xml"
        path.write_text(ARTICLES_XML, encoding="utf-8")
        return f"articles.xml={path}"

    def test_hits(self, doc_arg, capsys):
        assert cli.main(["nexi", "--doc", doc_arg, "-q", self.QUERY]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "  1. score=0.8      <section> in articles.xml",
            "  2. score=0.8      <section> in articles.xml",
            "(2 hits)",
        ]

    def test_show_and_top(self, doc_arg, capsys):
        assert cli.main(["nexi", "--doc", doc_arg, "-q", self.QUERY,
                         "--top", "1", "--show"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "  1. score=0.8      <section> in articles.xml"
        assert lines[1].startswith("     <section>")
        assert "Search Engine Basics" in "".join(lines[1:-1])
        assert lines[-1] == "(1 hits)"

    @pytest.mark.parametrize("top", ["0", "-1"])
    def test_non_positive_top_exits_2(self, doc_arg, capsys, top):
        with pytest.raises(SystemExit) as exc:
            cli.main(["nexi", "--doc", doc_arg, "-q", self.QUERY,
                      "--top", top])
        assert exc.value.code == 2
        assert "must be positive" in capsys.readouterr().err
