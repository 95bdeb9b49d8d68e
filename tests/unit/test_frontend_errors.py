"""Front-end error-path coverage: malformed extended-XQuery and NEXI
inputs must fail with positioned ``QuerySyntaxError`` /
``QueryCompileError`` — never a raw ``IndexError`` / ``AttributeError``
from deep inside the lexer or parser — and the ``UnknownTermError``
strict/non-strict contract must be consistent across every access
method."""

import pytest

from repro.errors import (
    QueryCompileError,
    QuerySyntaxError,
    TIXError,
    UnknownTermError,
)
from repro.exampledata import example_store


@pytest.fixture(scope="module")
def store():
    return example_store()


# A corpus of malformed extended-XQuery inputs: each is a distinct way a
# query can be broken (truncation, bad nesting, missing keywords, stray
# tokens, malformed constructors).
BAD_XQUERY = [
    "",                                        # empty input
    "For",                                     # truncated after keyword
    "For $a",                                  # missing in/:=
    "For $a in",                               # missing source expr
    "For $a in document(",                     # unclosed call
    'For $a in document("d.xml")//',           # dangling path step
    "For $a in $b/x",                          # missing Return
    "For $a in $b/x Return",                   # missing return expr
    "For $a in $b/x Return $a extra",          # trailing garbage
    "For $a in $b/x Score $a Return $a",       # Score without using
    "For $a in $b/x Return <r>{ $a }</s>",     # mismatched ctor close
    "For $a in $b/x Return <r { $a }</r>",     # malformed ctor open
    "Let $a Return $a",                        # Let without :=
    "For $a in $b/x Sortby() Return $a",       # clause out of order
    "For $a in $b/x Return $a Threshold",      # truncated Threshold
]


class TestXQuerySyntaxErrors:
    @pytest.mark.parametrize("src", BAD_XQUERY)
    def test_bad_query_raises_positioned_syntax_error(self, src):
        from repro.query import parse_query

        with pytest.raises(QuerySyntaxError) as ei:
            parse_query(src)
        # never a bare parser crash: the error is a TIXError with
        # 1-based position attributes
        assert isinstance(ei.value, TIXError)
        assert ei.value.line >= 0 and ei.value.column >= 0

    def test_position_points_at_offending_line(self):
        from repro.query import parse_query

        with pytest.raises(QuerySyntaxError) as ei:
            parse_query("For $a in $b/x\nReturn <r>{ $a }</s>")
        assert ei.value.line == 2
        assert ei.value.column > 0
        assert "line 2" in str(ei.value)


class TestNexiSyntaxErrors:
    @pytest.mark.parametrize("src", [
        "", "//", "//a[", "//a[]", "//a[about]", "//a[about(]",
        "//a[about(., )]", "//a[about(x, y)]", "//a[about(., x)",
        "//a[about(., x) and]", "//a[about(., x) junk]",
    ])
    def test_bad_nexi_raises_syntax_error(self, src):
        from repro.nexi import parse_nexi

        with pytest.raises(QuerySyntaxError):
            parse_nexi(src)

    def test_nexi_error_carries_column(self):
        from repro.nexi import parse_nexi

        with pytest.raises(QuerySyntaxError) as ei:
            parse_nexi("//a[about(x, y)]")
        assert ei.value.line == 1
        assert ei.value.column == 11  # the 'x' where '.' was expected

    def test_nexi_bad_character_column(self):
        from repro.nexi import parse_nexi

        with pytest.raises(QuerySyntaxError) as ei:
            parse_nexi("//a[about(., x$)]")
        assert ei.value.column == 15  # the '$'


class TestCompileErrors:
    @pytest.mark.parametrize("src, match", [
        ('<x>hi</x>', "FLWOR"),
        ('For $a in document("articles.xml")//p '
         'Score $a using ScoreFooExact($a, {"x"}) Return $a Sortby(score)',
         "descendant-or-self"),
        ('For $a in document("articles.xml")'
         '//p/descendant-or-self::* '
         'Score $a using ScoreFooExact($a, {"x"}) '
         'Pick $a using PickFoo($a) Return $a',
         "not compilable"),
    ])
    def test_non_compilable_raises_compile_error(self, store, src, match):
        from repro.query import parse_query
        from repro.query.compiler import compile_query

        with pytest.raises(QueryCompileError, match=match):
            compile_query(store, parse_query(src))


class TestUnknownTermContract:
    """index.postings, TermJoin, and PhraseFinder must agree: unknown
    terms are empty posting lists by default and ``UnknownTermError``
    under ``strict=True``."""

    MISSING = "zzz_not_in_any_document"

    def test_index_default_empty(self, store):
        assert len(store.index.postings(self.MISSING)) == 0

    def test_index_strict_raises(self, store):
        with pytest.raises(UnknownTermError, match=self.MISSING):
            store.index.postings(self.MISSING, strict=True)

    def test_termjoin_default_scores_known_terms_only(self, store):
        from repro.access.termjoin import TermJoin
        from repro.core.scoring import WeightedCountScorer

        scorer = WeightedCountScorer(["search", self.MISSING])
        out = TermJoin(store, scorer).run(["search", self.MISSING])
        assert out  # the known term still produces results

    def test_termjoin_strict_raises(self, store):
        from repro.access.termjoin import TermJoin
        from repro.core.scoring import WeightedCountScorer

        scorer = WeightedCountScorer(["search", self.MISSING])
        tj = TermJoin(store, scorer, strict=True)
        with pytest.raises(UnknownTermError, match=self.MISSING):
            tj.run(["search", self.MISSING])

    def test_phrasefinder_default_empty(self, store):
        from repro.access.phrasefinder import PhraseFinder

        assert PhraseFinder(store).run(["search", self.MISSING]) == []

    def test_phrasefinder_strict_raises(self, store):
        from repro.access.phrasefinder import PhraseFinder

        pf = PhraseFinder(store, strict=True)
        with pytest.raises(UnknownTermError, match=self.MISSING):
            pf.run([self.MISSING, "engine"])

    def test_strict_and_default_agree_on_known_terms(self, store):
        from repro.access.termjoin import TermJoin
        from repro.core.scoring import WeightedCountScorer

        scorer = WeightedCountScorer(["search"])
        default = TermJoin(store, scorer).run(["search"])
        strict = TermJoin(store, scorer, strict=True).run(["search"])
        assert [(r.doc_id, r.node_id, r.score) for r in default] == \
            [(r.doc_id, r.node_id, r.score) for r in strict]


class TestTermNormalisation:
    """Terms are normalised once, where postings are handed out, so
    every reader sees ``"Search"`` and ``"search"`` as the same term —
    TermJoin and the baselines used to score only the spellings that
    happened to be lowercase, while PhraseFinder lowercased its own."""

    MIXED = ["Search", "ENGINE"]
    LOWER = ["search", "engine"]

    def test_index_lookups_ignore_case(self, store):
        index = store.index
        assert index.postings("Search", strict=True).postings == \
            index.postings("search", strict=True).postings
        assert index.postings("Search").term == "search"
        assert "SEARCH" in index
        assert index.frequency("Search") == index.frequency("search") > 0
        assert index.document_frequency("Search") == \
            index.document_frequency("search")

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("complex_scoring", [False, True])
    def test_termjoin_scores_every_spelling(self, store, strict,
                                            complex_scoring):
        from repro.access.termjoin import EnhancedTermJoin, TermJoin
        from repro.core.scoring import ProximityScorer, WeightedCountScorer

        scorer = (ProximityScorer(self.LOWER) if complex_scoring
                  else WeightedCountScorer(["search"], ["engine"]))
        for cls in (TermJoin, EnhancedTermJoin):
            method = cls(store, scorer, complex_scoring, strict=strict)
            want = method.run(self.LOWER)
            assert want and method.run(self.MIXED) == want

    def test_baselines_and_meet_score_every_spelling(self, store):
        from repro.access.composite import Comp1, Comp2
        from repro.core.scoring import WeightedCountScorer
        from repro.joins.meet import generalized_meet

        scorer = WeightedCountScorer(["search"], ["engine"])
        for cls in (Comp1, Comp2):
            want = cls(store, scorer).run(self.LOWER)
            assert want and cls(store, scorer).run(self.MIXED) == want
        assert generalized_meet(store, self.MIXED, scorer) == \
            generalized_meet(store, self.LOWER, scorer)

    @pytest.mark.parametrize("strict", [False, True])
    def test_phrase_methods_agree_on_every_spelling(self, store, strict):
        from repro.access.composite import Comp3
        from repro.access.phrasefinder import PhraseFinder

        want = PhraseFinder(store, strict=strict).run(self.LOWER)
        assert want
        assert PhraseFinder(store, strict=strict).run(self.MIXED) == want
        assert Comp3(store).run(self.MIXED) == want
