"""Extended-XQuery front end (§4).

The paper extends XQuery with four clauses so IR conditions become
declarative:

- ``Score $v using Fn(args…)`` — assign relevance scores via a registered
  user scoring function;
- ``Pick $v using Fn($v)`` — redundancy elimination with a registered
  pick criterion;
- ``Sortby(name)`` — rank results;
- ``Threshold <cond> [stop after k]`` — V/K-style irrelevance filtering.

This package implements a lexer, recursive-descent parser, AST, a
reference evaluator over the store, a user-function registry preloaded
with the paper's Figure 9 functions, and a plan compiler that lowers the
common IR-query shape onto the pipelined engine with TermJoin /
PhraseFinder acceleration.

Entry point::

    from repro.query import run_query
    results = run_query(store, query_text)
"""

from repro.query.ast import Query
from repro.query.functions import (
    FunctionRegistry,
    QueryContext,
    default_registry,
)
from repro.query.parser import parse_query
from repro.query.evaluator import evaluate_query, run_query
from repro.query.compiler import compile_query

__all__ = [
    "Query",
    "FunctionRegistry",
    "QueryContext",
    "default_registry",
    "parse_query",
    "evaluate_query",
    "run_query",
    "compile_query",
]
