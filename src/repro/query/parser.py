"""Recursive-descent parser for the extended-XQuery subset.

Grammar (the shapes of Figure 10, plus obvious generalizations)::

    query      := expr
    expr       := flwor | ctor | orExpr | '(' expr ')'
    flwor      := clause+ 'Return' expr sortby? threshold?
    clause     := 'For' $v ('in' | ':=') expr
                | 'Let' $v ':=' expr
                | 'Where' orExpr
                | 'Score' $v 'using' funcCall
                | 'Pick' $v 'using' funcCall
    sortby     := 'Sortby' '(' name ')'
    threshold  := 'Threshold' orExpr ('stop' 'after' number)?
    ctor       := '<' name (name '=' string)* '>' content* '</' name '>'
    content    := '{' expr '}' | ctor | flwor | varPath | text
    orExpr     := andExpr ('or' andExpr)*
    andExpr    := cmp ('and' cmp)*
    cmp        := primary (('='|'!='|'<'|'<='|'>'|'>=') primary)?
    primary    := funcCall | termSet | literal | path | '(' expr ')'
    termSet    := '{' string (',' string)* '}'
    path       := ('document' '(' string ')' | $v | ε) step+ | $v
    step       := ('/' | '//') stepSpec
    stepSpec   := 'descendant-or-self' '::' '*'
                | 'text' '(' ')'
                | '@' name
                | (name | '*') ('[' orExpr ']')*

Inside predicates, a leading ``/`` is context-relative and ``//$d`` is the
containment test :class:`~repro.query.ast.ContainsVar`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import QuerySyntaxError
from repro.query.ast import (
    BoolExpr,
    Comparison,
    ContainsVar,
    DocCall,
    ElementCtor,
    Expr,
    FLWOR,
    ForClause,
    FuncCall,
    LetClause,
    Literal,
    PathExpr,
    PickClause,
    Query,
    ScoreClause,
    SortBy,
    Step,
    TermSet,
    TextContent,
    ThresholdClause,
    VarRef,
    WhereClause,
)
from repro.query.lexer import Token, tokenize_query

_CLAUSE_KEYWORDS = {"For", "Let", "Where", "Score", "Pick"}
_CMP_OPS = {"=", "!=", "<", "<=", ">", ">="}


class _Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.i = 0

    # -- token helpers -----------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        j = min(self.i + offset, len(self.tokens) - 1)
        return self.tokens[j]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        if tok.type != "eof":
            self.i += 1
        return tok

    def error(self, message: str) -> QuerySyntaxError:
        tok = self.peek()
        return QuerySyntaxError(
            f"{message} (found {tok.value!r})", tok.line, tok.column
        )

    def expect(self, type_: str, value: Optional[str] = None) -> Token:
        tok = self.peek()
        if tok.type != type_ or (value is not None and tok.value != value):
            want = value or type_
            raise self.error(f"expected {want!r}")
        return self.advance()

    def at(self, type_: str, value: Optional[str] = None) -> bool:
        tok = self.peek()
        return tok.type == type_ and (value is None or tok.value == value)

    def accept(self, type_: str, value: Optional[str] = None) -> bool:
        if self.at(type_, value):
            self.advance()
            return True
        return False

    # -- entry --------------------------------------------------------------

    def parse(self) -> Query:
        body = self.parse_expr()
        if not self.at("eof"):
            raise self.error("trailing input after query")
        return Query(body)

    # -- expressions ---------------------------------------------------------

    def parse_expr(self) -> Expr:
        if (self.peek().type == "keyword"
                and self.peek().value in _CLAUSE_KEYWORDS):
            return self.parse_flwor()
        if self.at("symbol", "<"):
            return self.parse_ctor()
        if self.at("symbol", "("):
            self.advance()
            inner = self.parse_expr()
            self.expect("symbol", ")")
            return inner
        return self.parse_or()

    def parse_flwor(self) -> FLWOR:
        clauses: List = []
        while (self.peek().type == "keyword"
               and self.peek().value in _CLAUSE_KEYWORDS):
            kw = self.advance().value
            if kw == "For":
                var = self.expect("var").value
                if not (self.accept("keyword", "in")
                        or self.accept("symbol", ":=")):
                    raise self.error(
                        "expected 'in' or ':=' after For variable"
                    )
                clauses.append(ForClause(var, self.parse_expr()))
            elif kw == "Let":
                var = self.expect("var").value
                self.expect("symbol", ":=")
                clauses.append(LetClause(var, self.parse_expr()))
            elif kw == "Where":
                clauses.append(WhereClause(self.parse_or()))
            elif kw == "Score":
                var = self.expect("var").value
                self.expect("keyword", "using")
                clauses.append(ScoreClause(var, self.parse_func_call()))
            else:  # Pick
                var = self.expect("var").value
                self.expect("keyword", "using")
                clauses.append(PickClause(var, self.parse_func_call()))
        self.expect("keyword", "Return")
        return_expr = self.parse_expr()
        sortby = None
        if self.accept("keyword", "Sortby"):
            self.expect("symbol", "(")
            key = self.expect("name").value
            self.expect("symbol", ")")
            sortby = SortBy(key)
        threshold = None
        if self.accept("keyword", "Threshold"):
            cond = self.parse_or()
            stop_after = None
            if self.accept("keyword", "stop"):
                self.expect("keyword", "after")
                tok = self.peek()
                if (tok.type != "number" or not tok.value.isdigit()
                        or int(tok.value) == 0):
                    raise self.error(
                        "'stop after' needs a positive integer count"
                    )
                stop_after = int(self.advance().value)
            threshold = ThresholdClause(cond, stop_after)
        # Sortby may also follow Threshold (either order accepted).
        if sortby is None and self.accept("keyword", "Sortby"):
            self.expect("symbol", "(")
            key = self.expect("name").value
            self.expect("symbol", ")")
            sortby = SortBy(key)
        return FLWOR(tuple(clauses), return_expr, sortby, threshold)

    # -- boolean / comparison -------------------------------------------------

    def parse_or(self) -> Expr:
        left = self.parse_and()
        operands = [left]
        while self.accept("keyword", "or"):
            operands.append(self.parse_and())
        if len(operands) == 1:
            return left
        return BoolExpr("or", tuple(operands))

    def parse_and(self) -> Expr:
        left = self.parse_cmp()
        operands = [left]
        while self.accept("keyword", "and"):
            operands.append(self.parse_cmp())
        if len(operands) == 1:
            return left
        return BoolExpr("and", tuple(operands))

    def parse_cmp(self) -> Expr:
        if self.accept("keyword", "not"):
            self.expect("symbol", "(")
            inner = self.parse_or()
            self.expect("symbol", ")")
            return BoolExpr("not", (inner,))
        left = self.parse_primary()
        tok = self.peek()
        if tok.type == "symbol" and tok.value in _CMP_OPS:
            op = self.advance().value
            right = self.parse_primary()
            return Comparison(op, left, right)
        return left

    # -- primaries ------------------------------------------------------

    def parse_primary(self) -> Expr:
        tok = self.peek()
        if tok.type == "string":
            self.advance()
            return Literal(tok.value)
        if tok.type == "number":
            self.advance()
            return Literal(float(tok.value))
        if tok.type == "symbol" and tok.value == "{":
            return self.parse_term_set()
        if tok.type == "symbol" and tok.value == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect("symbol", ")")
            return inner
        if tok.type == "name":
            if self.peek(1).type == "symbol" and self.peek(1).value == "(":
                if tok.value == "document":
                    return self.parse_path()
                return self.parse_func_call()
            # bare name: context-relative child path (e.g. 'simScore')
            if tok.value == "document":
                return self.parse_path()
            self.advance()
            path = PathExpr(None, (Step("child", tok.value),))
            return self._continue_path(path)
        if tok.type == "var" or (
            tok.type == "symbol" and tok.value in ("/", "//")
        ):
            return self.parse_path()
        raise self.error("expected an expression")

    def parse_term_set(self) -> TermSet:
        self.expect("symbol", "{")
        phrases = [self.expect("string").value]
        while self.accept("symbol", ","):
            phrases.append(self.expect("string").value)
        self.expect("symbol", "}")
        return TermSet(tuple(phrases))

    def parse_func_call(self) -> FuncCall:
        name = self.expect("name").value
        self.expect("symbol", "(")
        args: List[Expr] = []
        if not self.at("symbol", ")"):
            args.append(self.parse_expr())
            while self.accept("symbol", ","):
                args.append(self.parse_expr())
        self.expect("symbol", ")")
        return FuncCall(name, tuple(args))

    # -- paths ---------------------------------------------------------------

    def parse_path(self) -> Expr:
        tok = self.peek()
        root: Optional[Expr]
        if tok.type == "name" and tok.value == "document":
            self.advance()
            self.expect("symbol", "(")
            doc_name = self.expect("string").value
            self.expect("symbol", ")")
            root = DocCall(doc_name)
        elif tok.type == "var":
            self.advance()
            root = VarRef(tok.value)
        else:
            root = None  # context-relative
        path = PathExpr(root if root is not None else None, ())
        return self._continue_path(path)

    def _continue_path(self, path: PathExpr) -> Expr:
        steps = list(path.steps)
        while True:
            if self.at("symbol", "//"):
                self.advance()
                steps.append(self.parse_step("descendant"))
            elif self.at("symbol", "/"):
                self.advance()
                steps.append(self.parse_step("child"))
            else:
                break
        if not steps and isinstance(path.root, VarRef):
            return path.root
        return PathExpr(path.root, tuple(steps))

    def parse_step(self, axis: str) -> Step:
        tok = self.peek()
        if tok.type == "symbol" and tok.value == "@":
            self.advance()
            name = self.expect("name").value
            return Step("attribute", name)
        if tok.type == "name" and tok.value == "text" \
                and self.peek(1).value == "(":
            self.advance()
            self.expect("symbol", "(")
            self.expect("symbol", ")")
            return Step("text")
        if tok.type == "symbol" and tok.value == "*":
            self.advance()
            return Step(axis, "*", self.parse_predicates())
        name_tok = self.expect("name")
        # descendant-or-self::* (the ad* relationship)
        if self.at("symbol", "::"):
            self.advance()
            self.expect("symbol", "*")
            if name_tok.value != "descendant-or-self":
                raise self.error(
                    f"unsupported axis {name_tok.value!r}"
                )
            return Step("descendant-or-self", "*", self.parse_predicates())
        return Step(axis, name_tok.value, self.parse_predicates())

    def parse_predicates(self) -> Tuple[Expr, ...]:
        preds: List[Expr] = []
        while self.at("symbol", "["):
            self.advance()
            preds.append(self.parse_predicate_body())
            self.expect("symbol", "]")
        return tuple(preds)

    def parse_predicate_body(self) -> Expr:
        # [//$d] — containment of a bound variable
        if self.at("symbol", "//") and self.peek(1).type == "var":
            self.advance()
            var = self.advance().value
            return ContainsVar(var)
        return self.parse_or()

    # -- element constructors -------------------------------------------

    def parse_ctor(self) -> ElementCtor:
        self.expect("symbol", "<")
        tag = self.expect("name").value
        attrs: List[Tuple[str, str]] = []
        while self.peek().type == "name":
            aname = self.advance().value
            self.expect("symbol", "=")
            attrs.append((aname, self.expect("string").value))
        self.expect("symbol", ">")
        content: List[Expr] = []
        text_parts: List[str] = []

        def flush_text() -> None:
            if text_parts:
                content.append(TextContent(" ".join(text_parts)))
                text_parts.clear()

        while True:
            tok = self.peek()
            if tok.type == "eof":
                raise self.error(f"unterminated <{tag}> constructor")
            if tok.type == "symbol" and tok.value == "<":
                nxt = self.peek(1)
                if nxt.type == "symbol" and nxt.value == "/":
                    # closing tag
                    flush_text()
                    self.advance()  # <
                    self.advance()  # /
                    close = self.expect("name").value
                    if close != tag:
                        raise self.error(
                            f"mismatched </{close}>, expected </{tag}>"
                        )
                    self.expect("symbol", ">")
                    return ElementCtor(tag, tuple(attrs), tuple(content))
                flush_text()
                content.append(self.parse_ctor())
                continue
            if tok.type == "symbol" and tok.value == "{":
                flush_text()
                self.advance()
                content.append(self.parse_expr())
                self.expect("symbol", "}")
                continue
            if tok.type == "keyword" and tok.value in _CLAUSE_KEYWORDS:
                flush_text()
                content.append(self.parse_flwor())
                continue
            if tok.type == "var":
                flush_text()
                content.append(self.parse_path())
                continue
            if tok.type == "name" and tok.value == "document":
                flush_text()
                content.append(self.parse_path())
                continue
            if tok.type == "name" and self.peek(1).value == "(":
                # Function call in element content, e.g.
                # <simScore>ScoreSim($at/text(), $bt/text())</simScore>
                flush_text()
                content.append(self.parse_func_call())
                continue
            if tok.type in ("name", "number", "string", "keyword"):
                text_parts.append(str(self.advance().value))
                continue
            if tok.type == "symbol" and tok.value in (",", "/", "*", "@"):
                text_parts.append(self.advance().value)
                continue
            raise self.error(
                f"unexpected {tok.value!r} inside <{tag}> constructor"
            )


def parse_query(source: str) -> Query:
    """Parse a query string into an AST."""
    return _Parser(tokenize_query(source)).parse()
