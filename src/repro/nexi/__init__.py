"""NEXI: the INEX content-and-structure query front end.

The paper evaluates on the INEX collection, whose official topic language
is NEXI (Narrowed Extended XPath I) — content-only keyword queries and
content-and-structure queries such as::

    //article[about(.//sec, "search engine")]//sec[about(., ranking)]

This package parses the NEXI subset INEX topics actually use and
evaluates it on the TIX machinery: the tag path is matched and scored in
one pass per step over each document's columns, ``about`` relevance via
the scoring-function library and subtree scoring, then ranked with an
optional top-k cutoff.  It is an offline library front end (and
``tix nexi``): not served, guarded or cached.

Entry point::

    from repro.nexi import run_nexi
    hits = run_nexi(store, '//article//sec[about(., "search engine")]')
"""

from repro.nexi.ast import AboutClause, BoolOp, NexiPath, NexiStep
from repro.nexi.parser import parse_nexi
from repro.nexi.evaluator import NexiHit, evaluate_nexi, run_nexi

__all__ = [
    "AboutClause",
    "BoolOp",
    "NexiPath",
    "NexiStep",
    "parse_nexi",
    "NexiHit",
    "evaluate_nexi",
    "run_nexi",
]
