"""Unit tests for the query lexer and parser."""

import pytest

from repro.errors import QuerySyntaxError
from repro.query.ast import (
    Comparison,
    ContainsVar,
    DocCall,
    ElementCtor,
    FLWOR,
    ForClause,
    FuncCall,
    LetClause,
    Literal,
    PathExpr,
    PickClause,
    ScoreClause,
    TermSet,
    VarRef,
    WhereClause,
)
from repro.query.lexer import tokenize_query
from repro.query.parser import parse_query


class TestLexer:
    def test_keywords_vs_names(self):
        toks = tokenize_query("For $a in foo Return $a")
        kinds = [(t.type, t.value) for t in toks[:-1]]
        assert kinds == [
            ("keyword", "For"), ("var", "a"), ("keyword", "in"),
            ("name", "foo"), ("keyword", "Return"), ("var", "a"),
        ]

    def test_strings_both_quotes(self):
        toks = tokenize_query("\"double\" 'single'")
        assert [t.value for t in toks[:-1]] == ["double", "single"]

    def test_string_escapes(self):
        toks = tokenize_query(r'"say \"hi\""')
        assert toks[0].value == 'say "hi"'

    def test_numbers(self):
        toks = tokenize_query("4 4.5")
        assert [t.value for t in toks[:-1]] == ["4", "4.5"]

    def test_symbols(self):
        toks = tokenize_query(":= // :: >= {")
        assert [t.value for t in toks[:-1]] == [":=", "//", "::", ">=", "{"]

    def test_comment_skipped(self):
        toks = tokenize_query("For (: note :) $a")
        assert [t.value for t in toks[:-1]] == ["For", "a"]

    def test_positions(self):
        toks = tokenize_query("For\n  $a")
        assert toks[1].line == 2 and toks[1].column == 3

    def test_unknown_char(self):
        with pytest.raises(QuerySyntaxError):
            tokenize_query("For § $a")


class TestParserBasics:
    def test_minimal_flwor(self):
        q = parse_query("For $a in document(\"d.xml\")//x Return $a")
        flwor = q.body
        assert isinstance(flwor, FLWOR)
        assert isinstance(flwor.clauses[0], ForClause)
        assert isinstance(flwor.return_expr, VarRef)

    def test_for_with_assign(self):
        q = parse_query('For $a := document("d")//x Return $a')
        assert isinstance(q.body.clauses[0], ForClause)

    def test_let_clause(self):
        q = parse_query('Let $c := document("d")//x Return $c')
        assert isinstance(q.body.clauses[0], LetClause)

    def test_where_clause(self):
        q = parse_query(
            'For $a in document("d")//x Where $a/@score > 2 Return $a'
        )
        assert isinstance(q.body.clauses[1], WhereClause)

    def test_score_clause(self):
        q = parse_query(
            'For $a in document("d")//x '
            'Score $a using ScoreFoo($a, {"t1"}, {"t2", "t3"}) '
            'Return $a'
        )
        score = q.body.clauses[1]
        assert isinstance(score, ScoreClause)
        assert score.function.name == "ScoreFoo"
        assert score.function.args[1] == TermSet(("t1",))
        assert score.function.args[2] == TermSet(("t2", "t3"))

    def test_pick_clause(self):
        q = parse_query(
            'For $a in document("d")//x Pick $a using PickFoo($a) '
            'Return $a'
        )
        assert isinstance(q.body.clauses[1], PickClause)

    def test_sortby_and_threshold(self):
        q = parse_query(
            'For $a in document("d")//x Return $a '
            'Sortby(score) Threshold $a/@score > 4 stop after 5'
        )
        assert q.body.sortby.key == "score"
        assert q.body.threshold.stop_after == 5
        assert isinstance(q.body.threshold.condition, Comparison)

    @pytest.mark.parametrize("count", ["0", "00", "2.5", "1.0", "$a"])
    def test_stop_after_needs_a_positive_integer(self, count):
        # Regression: 0 meant "all rows" to the evaluator, "no rows" to
        # a compiled Limit and an untyped ValueError in TopK; 2.5 was
        # silently truncated to 2.
        text = ('For $a in document("d")//x Return $a Sortby(score)\n'
                f'Threshold $a/@score > 0 stop after {count}')
        with pytest.raises(QuerySyntaxError, match="positive integer") \
                as exc:
            parse_query(text)
        assert (exc.value.line, exc.value.column) == (2, 36)

    def test_threshold_before_sortby_accepted(self):
        q = parse_query(
            'For $a in document("d")//x Return $a '
            'Threshold $a/@score > 1 Sortby(score)'
        )
        assert q.body.sortby is not None and q.body.threshold is not None


class TestPaths:
    def path(self, text):
        q = parse_query(f'For $a in {text} Return $a')
        return q.body.clauses[0].source

    def test_document_root(self):
        p = self.path('document("articles.xml")//article')
        assert p.root == DocCall("articles.xml")
        assert p.steps[0].axis == "descendant"
        assert p.steps[0].test == "article"

    def test_child_steps(self):
        p = self.path('$b/author/sname')
        assert p.root == VarRef("b")
        assert [s.axis for s in p.steps] == ["child", "child"]

    def test_descendant_or_self(self):
        p = self.path('document("d")//article/descendant-or-self::*')
        assert p.steps[-1].axis == "descendant-or-self"

    def test_attribute_step(self):
        p = self.path('$b/@score')
        assert p.steps[0].axis == "attribute"
        assert p.steps[0].test == "score"

    def test_text_step(self):
        p = self.path('$b/text()')
        assert p.steps[0].axis == "text"

    def test_predicate_with_relative_path(self):
        p = self.path('document("d")//article[/author/sname/text()="Doe"]')
        (pred,) = p.steps[0].predicates
        assert isinstance(pred, Comparison)
        assert isinstance(pred.left, PathExpr)
        assert pred.left.root is None
        assert pred.right == Literal("Doe")

    def test_contains_var_predicate(self):
        p = self.path('$c//tix_prod_root[//$d]')
        (pred,) = p.steps[0].predicates
        assert pred == ContainsVar("d")

    def test_wildcard_step(self):
        p = self.path('$b/*')
        assert p.steps[0].test == "*"

    def test_unsupported_axis_rejected(self):
        with pytest.raises(QuerySyntaxError):
            parse_query('For $a in $b/ancestor::* Return $a')


class TestConstructors:
    def test_simple_ctor(self):
        q = parse_query('For $a in $b/x Return <r>{ $a }</r>')
        ctor = q.body.return_expr
        assert isinstance(ctor, ElementCtor)
        assert ctor.tag == "r"
        assert ctor.content == (VarRef("a"),)

    def test_nested_ctor_with_attrs(self):
        q = parse_query(
            'For $a in $b/x Return <r kind="best"><s>{ $a }</s></r>'
        )
        ctor = q.body.return_expr
        assert ctor.attrs == (("kind", "best"),)
        assert isinstance(ctor.content[0], ElementCtor)

    def test_func_call_in_content(self):
        q = parse_query(
            'For $a in $b/x Return <s>ScoreSim($a, $a)</s>'
        )
        (call,) = q.body.return_expr.content
        assert isinstance(call, FuncCall) and call.name == "ScoreSim"

    def test_text_content(self):
        q = parse_query('For $a in $b/x Return <r>hello world</r>')
        (txt,) = q.body.return_expr.content
        assert txt.text == "hello world"

    def test_mismatched_close_rejected(self):
        with pytest.raises(QuerySyntaxError, match="mismatched"):
            parse_query('For $a in $b/x Return <r>{ $a }</s>')

    def test_nested_flwor_in_ctor(self):
        q = parse_query(
            'Let $c := (<root> For $a in $b/x Return <y>{ $a }</y> </root>) '
            'Return $c'
        )
        let = q.body.clauses[0]
        inner = let.source.content[0]
        assert isinstance(inner, FLWOR)


class TestErrors:
    @pytest.mark.parametrize("src", [
        "For $a Return $a",                 # missing in/:=
        "Return",                           # missing expr
        "For $a in $b/x Return $a extra",   # trailing input
        "For $a in $b/x",                   # missing Return
        'For $a in $b/x Score $a Return $a',  # missing using
    ])
    def test_syntax_errors(self, src):
        with pytest.raises(QuerySyntaxError):
            parse_query(src)

    def test_error_has_position(self):
        with pytest.raises(QuerySyntaxError) as exc:
            parse_query("For $a\nReturn $a")
        assert exc.value.line == 2
