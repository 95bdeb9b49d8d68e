"""Per-operator cardinality / cost estimation from catalog statistics.

:func:`estimate_plan` walks a compiled operator tree bottom-up and
annotates every node with ``est_rows`` (expected output cardinality)
and ``est_cost`` (abstract work units, cumulative over children) —
computed *before* execution from :class:`~repro.xmldb.stats.
StoreStatistics` alone:

- **the score-generating leaf** (``termjoin-scan``) estimates from
  catalog term frequencies: a multi-term leaf sums its terms, and each
  additional word of a phrase multiplies the rarest term's frequency
  by :data:`PHRASE_ADJACENCY`.  A scan restricted to one document
  (``doc_id``) scales that corpus sum by the document's share of the
  corpus words, so a single-term leaf's estimate is exactly
  ``stats.frequency(term) * (len(doc.word_terms) / stats.n_words)``
  (asserted by the unit tests); an unrestricted leaf keeps the plain
  catalog frequency;
- **structural predicates** (``structural-filter``) turn their
  (doc, start, end) regions into a fraction of the corpus region span
  (:func:`~repro.plan.rules.region_fraction`); over a restricted scan
  that fraction is divided by the scanned document's share of the
  corpus span, clamped to 1, since the input holds that document's
  rows only;
- **rank and output operators** (``top-k``, ``limit``, ``sort``,
  ``materialize``) pass their child's estimate through, clamped to
  ``k`` where they cut; every intermediate is clamped to ``[0, bound]``
  so one bad guess cannot cascade into astronomic plans.

Estimates are *heuristics with stated assumptions*, not promises; the
point is that ``explain(analyze=True)`` then shows the per-operator
**q-error** — ``max(est/actual, actual/est)``, 1-safe — so
misestimation is measurable and logged to the audit trail.

The module deliberately dispatches on ``Operator.name`` strings rather
than operator classes: it must not import :mod:`repro.engine` (the
engine imports this module for q-error rendering), and unknown
operators degrade to a documented passthrough instead of failing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from repro import obs as _obs
from repro.plan.rules import region_fraction

if TYPE_CHECKING:  # pragma: no cover
    from repro.xmldb.stats import StoreStatistics
    from repro.xmldb.store import XMLStore

__all__ = [
    "PHRASE_ADJACENCY", "SCORE_SELECTIVITY",
    "qerror", "term_estimate", "phrase_estimate",
    "estimate_plan", "publish_qerrors",
]

#: Probability that a posting of the rarest phrase term extends the
#: phrase by one adjacent word.  Applied once per extra phrase word, so
#: a single-word "phrase" keeps its exact catalog frequency.
PHRASE_ADJACENCY = 0.1

#: Fraction of scored elements assumed to survive a positive
#: score-threshold (V-condition) filter.
SCORE_SELECTIVITY = 0.5

# Abstract per-item work units of the cost model.  Only ratios matter:
# a posting scanned during a merge is the unit, emitting/copying a tree
# costs more, and a comparison inside a sort costs less.
_COST_POSTING = 1.0
_COST_EMIT = 2.0
_COST_COMPARE = 0.25


def qerror(est: float, actual: float) -> float:
    """The q-error of an estimate: ``max(est/actual, actual/est)``.

    1-safe: both sides are clamped to at least one row before dividing,
    so empty results (actual = 0) and zero estimates yield finite,
    comparable errors instead of division blow-ups — the convention of
    the cardinality-estimation literature.  Perfect estimates (and any
    pair that only disagrees below one row) score exactly ``1.0``.
    """
    e = max(float(est), 1.0)
    a = max(float(actual), 1.0)
    return e / a if e >= a else a / e


def _log2(n: float) -> float:
    from math import log2

    return log2(n) if n > 1.0 else 0.0


def term_estimate(stats: "StoreStatistics", term: str) -> float:
    """Catalog cardinality of one query item: the corpus frequency of a
    single term (0.0 for unknown terms — the ``strict`` flag changes
    runtime behaviour, not the catalog's answer), or the phrase
    estimate when ``term`` contains whitespace."""
    parts = term.split()
    if len(parts) > 1:
        return phrase_estimate(stats, parts)
    return float(stats.frequency(term.lower()))


def phrase_estimate(stats: "StoreStatistics", terms) -> float:
    """Estimated phrase occurrences: the rarest term bounds the count,
    and each additional word keeps only :data:`PHRASE_ADJACENCY` of it.
    A zero-frequency word makes the whole phrase impossible (0.0)."""
    freqs = [float(stats.frequency(t.lower())) for t in terms]
    if not freqs:
        return 0.0
    low = min(freqs)
    return low * (PHRASE_ADJACENCY ** (len(freqs) - 1))


def _span_share(store: "XMLStore", doc_id: int) -> float:
    """The document's share of the corpus region span (the denominator
    :func:`~repro.plan.rules.region_fraction` uses); 1.0 when the
    document spans nothing."""
    total = sum(d.ends[0] - d.starts[0] + 1
                for d in store.documents() if len(d))
    doc = store.document(doc_id)
    if not len(doc) or total <= 0:
        return 1.0
    return (doc.ends[0] - doc.starts[0] + 1) / total


def _clamp(value: float, upper: Optional[float] = None) -> float:
    if value < 0.0:
        return 0.0
    if upper is not None and value > upper:
        return upper
    return value


# ----------------------------------------------------------------------
# The tree walk
# ----------------------------------------------------------------------

def _estimate_node(op: Any, stats: "StoreStatistics",
                   child_rows: Tuple[float, ...]) -> Tuple[float, float]:
    """``(est_rows, own_cost)`` of one operator given its children's
    estimated cardinalities.  Dispatch is by ``op.name``."""
    name = getattr(op, "name", "operator")
    n_elements = float(max(1, stats.n_elements))
    first = child_rows[0] if child_rows else 0.0

    if name == "termjoin-scan":
        terms = getattr(op, "terms", ())
        est = sum(term_estimate(stats, t) for t in terms)
        doc_id = getattr(op, "doc_id", None)
        if doc_id is not None and stats.n_words:
            doc = op.store.document(doc_id)
            est *= len(doc.word_terms) / stats.n_words
        if getattr(op, "min_score", None) is not None \
                and op.min_score > 0:
            est *= SCORE_SELECTIVITY
        cost = est * _COST_POSTING + est * _log2(est) * _COST_COMPARE
        return est, cost
    if name == "structural-filter":
        fraction = region_fraction(op.store, op.regions)
        doc_id = getattr(op.children[0], "doc_id", None)
        if doc_id is not None:
            fraction = min(fraction / _span_share(op.store, doc_id), 1.0)
        return first * fraction, first * _COST_COMPARE
    if name in ("limit", "top-k"):
        k = float(getattr(op, "k", 0) or 0)
        bound = _clamp(first, k) if k else first
        if name == "top-k":
            return bound, first * _log2(max(k, 1.0)) * _COST_COMPARE
        return bound, bound * _COST_COMPARE
    if name == "sort":
        return first, first * _log2(first) * _COST_COMPARE
    if name == "materialize":
        return first, first * _COST_EMIT
    # Unknown operator: sources scan the corpus, single-child operators
    # pass through, multi-child operators emit the union bound.
    if not child_rows:
        return n_elements, n_elements * _COST_EMIT
    if len(child_rows) == 1:
        return first, first * _COST_COMPARE
    return sum(child_rows), sum(child_rows) * _COST_COMPARE


def estimate_plan(plan: Any, store: "XMLStore") -> float:
    """Annotate every operator of ``plan`` with ``est_rows`` and
    ``est_cost`` (cumulative: own work plus children) from the store's
    cached :class:`~repro.xmldb.stats.StoreStatistics`; returns the
    root's estimated cardinality.

    The statistics catalog is built at most once per
    ``store.generation`` (see :meth:`repro.xmldb.store.XMLStore.stats`),
    so per-query estimation is a cheap tree walk.  Emits one
    ``estimate.computed`` count per annotated plan while a collector is
    installed.
    """
    stats = store.stats
    est = _walk(plan, stats)
    rec = _obs.RECORDER
    if rec.enabled:
        rec.count("estimate.computed")
    return est


def _walk(op: Any, stats: "StoreStatistics") -> float:
    child_rows = []
    child_cost = 0.0
    for child in getattr(op, "children", ()):
        child_rows.append(_walk(child, stats))
        child_cost += getattr(child, "est_cost", 0.0) or 0.0
    est, own_cost = _estimate_node(op, stats, tuple(child_rows))
    est = _clamp(est)
    op.est_rows = est
    op.est_cost = child_cost + _clamp(own_cost)
    return est


def publish_qerrors(plan: Any) -> Dict[str, float]:
    """After execution, feed every annotated operator's q-error — as
    :func:`repro.engine.base.plan_stats` reports it — into the
    ``estimate.qerror`` histogram (no-op without a collector).  Returns
    ``{describe: q-error}`` for the annotated operators, so callers can
    render or log the same numbers."""
    from repro.engine.base import plan_nodes

    out: Dict[str, float] = {}
    rec = _obs.RECORDER
    enabled = rec.enabled
    for node in plan_nodes(plan):
        q = node["q_error"]
        if q is not None:
            out[node["describe"]] = q
            if enabled:
                rec.observe("estimate.qerror", q)
    return out
