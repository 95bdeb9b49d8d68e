"""Pipelined, set-oriented query evaluation engine (§5 framing).

The engine evaluates physical plans of iterator-style operators
(open / next / close) over streams of scored trees, so the paper's
access methods slot into "a standard pipelined database query
evaluation engine" exactly as it proposes.  It holds the operators the
compiler (:mod:`repro.query.compiler`) builds, and nothing else:

- source: :class:`~repro.engine.operators.TermJoinScan`;
- rank: Sort, Limit and TopK (§5.3's bounded heap);
- output: Materialize, plus plan explain and execution statistics.

The compiler's ``StructuralFilter`` sits between the scan and the rank.
The TIX algebra itself (:mod:`repro.core.operators`) is not an engine
operator; it stays the reference the compiled plans are checked against.
"""

from repro.engine.base import Operator, execute, explain
from repro.engine.operators import (
    TermJoinScan,
    Sort,
    Limit,
    TopK,
    Materialize,
)

__all__ = [
    "Operator",
    "execute",
    "explain",
    "TermJoinScan",
    "Sort",
    "Limit",
    "TopK",
    "Materialize",
]
