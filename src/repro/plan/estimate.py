"""Per-operator cardinality / cost estimation from catalog statistics.

:func:`estimate_plan` walks a compiled operator tree bottom-up and
annotates every node with ``est_rows`` (expected output cardinality)
and ``est_cost`` (abstract work units, cumulative over children) —
computed *before* execution from :class:`~repro.xmldb.stats.
StoreStatistics` alone:

- **score-generating leaves** (``termjoin-scan``, ``phrasefinder-scan``)
  estimate from catalog term frequencies: a single-term leaf's estimate
  is exactly ``stats.frequency(term)`` (asserted by the unit tests), a
  multi-term leaf sums its terms, and each additional word of a phrase
  multiplies the rarest term's frequency by :data:`PHRASE_ADJACENCY`;
- **structural predicates** (``structural-filter``) turn their
  (doc, start, end) regions into a fraction of the corpus region span;
- **structural / twig containment** uses the level histogram
  (:func:`containment_selectivity`: an element at level *l* has *l*
  proper ancestors, so the histogram gives the exact count of
  ancestor–descendant pairs) and the fan-out statistics;
- **composites** multiply child estimates under the independence
  assumption, with every intermediate clamped to ``[0, bound]`` so one
  bad guess cannot cascade into astronomic plans.

Estimates are *heuristics with stated assumptions*, not promises; the
point is that ``explain(analyze=True)`` then shows the per-operator
**q-error** — ``max(est/actual, actual/est)``, 1-safe — so
misestimation is measurable, logged to the audit trail, and
aggregatable by ``tix feedback`` (:mod:`repro.plan.feedback`).

The module deliberately dispatches on ``Operator.name`` strings rather
than operator classes: it must not import :mod:`repro.engine` (the
engine imports this module for q-error rendering), and unknown
operators degrade to a documented passthrough instead of failing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from repro import obs as _obs

if TYPE_CHECKING:  # pragma: no cover
    from repro.xmldb.stats import StoreStatistics
    from repro.xmldb.store import XMLStore

__all__ = [
    "PHRASE_ADJACENCY", "SCORE_SELECTIVITY",
    "qerror", "term_estimate", "phrase_estimate",
    "containment_selectivity", "structural_join_estimate",
    "estimate_plan", "publish_qerrors",
]

#: Probability that a posting of the rarest phrase term extends the
#: phrase by one adjacent word.  Applied once per extra phrase word, so
#: a single-word "phrase" keeps its exact catalog frequency.
PHRASE_ADJACENCY = 0.1

#: Fraction of scored elements assumed to survive a positive
#: score-threshold (V-condition) filter.
SCORE_SELECTIVITY = 0.5

#: Fraction of inputs assumed to survive a pattern selection (Select /
#: Pick) when no structural statistics apply.
FILTER_SELECTIVITY = 0.5

#: Join selectivity for value joins (similarity predicates) under the
#: independence assumption.
JOIN_SELECTIVITY = 0.1

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


def containment_selectivity(stats: "StoreStatistics") -> float:
    """P(random element X is a proper ancestor of random element Y),
    read exactly off the level histogram: an element at level *l* has
    *l* proper ancestors, so the number of ancestor–descendant pairs is
    ``Σ_l l·count(l)`` out of ``N²`` ordered pairs."""
    n = max(1, stats.n_elements)
    pairs = sum(
        level * count for level, count in stats.level_counts.items()
    )
    return min(1.0, pairs / float(n * n))


def structural_join_estimate(stats: "StoreStatistics",
                             n_ancestors: float,
                             n_descendants: float) -> float:
    """Expected output of an ancestor–descendant structural (or twig
    edge) join between two element sets, under the independence
    assumption: ``|A|·|D|·P(containment)``, clamped so the output never
    exceeds every descendant paired with its full ancestor chain
    (``|D| · max_depth``) — the level histogram's hard bound."""
    est = n_ancestors * n_descendants * containment_selectivity(stats)
    bound = n_descendants * max(1.0, float(stats.max_depth))
    return _clamp(est, bound)


def _clamp(value: float, upper: Optional[float] = None) -> float:
    if value < 0.0:
        return 0.0
    if upper is not None and value > upper:
        return upper
    return value


# ----------------------------------------------------------------------
# The tree walk
# ----------------------------------------------------------------------

def _region_selectivity(op: Any, stats: "StoreStatistics") -> float:
    """Fraction of the corpus region span covered by a
    structural-filter's allowed (doc, start, end) regions."""
    regions = getattr(op, "regions", None)
    store = getattr(op, "store", None)
    if not regions or store is None:
        return 1.0
    total = 0
    for doc in store.documents():
        if len(doc):
            total += doc.ends[0] - doc.starts[0] + 1
    if total <= 0:
        return 1.0
    covered = sum(rend - rstart + 1 for _doc, rstart, rend in regions)
    return _clamp(covered / float(total), 1.0)


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
        if getattr(op, "min_score", None) is not None \
                and op.min_score > 0:
            est *= SCORE_SELECTIVITY
        cost = est * _COST_POSTING + est * _log2(est) * _COST_COMPARE
        return est, cost
    if name == "phrasefinder-scan":
        tokens = getattr(op, "phrase_terms", ())
        est = phrase_estimate(stats, tokens)
        scanned = sum(term_estimate(stats, t) for t in tokens)
        return est, scanned * _COST_POSTING
    if name == "tag-scan":
        tag = getattr(op, "tag", None)
        est = float(stats.tag_counts.get(tag, 0))
        if getattr(op, "doc_name", None) is not None:
            est /= float(max(1, getattr(op.store, "n_documents", 1)))
        return est, est * _COST_EMIT
    if name == "doc-source":
        store = getattr(op, "store", None)
        n_docs = float(getattr(store, "n_documents", 1) or 1)
        est = 1.0 if getattr(op, "doc_name", None) is not None else n_docs
        return est, est * _COST_EMIT
    if name == "structural-filter":
        est = first * _region_selectivity(op, stats)
        return est, first * _COST_COMPARE
    if name == "threshold":
        est = first
        if getattr(op, "min_score", None) is not None \
                and op.min_score > 0:
            est *= SCORE_SELECTIVITY
        top_k = getattr(op, "top_k", None)
        if top_k is not None:
            est = _clamp(est, float(top_k))
        return est, first * _COST_COMPARE
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
    if name in ("select", "join"):
        # Pattern selection: embeddings are ancestor-descendant
        # containments, so the level histogram drives the estimate and
        # the depth bound caps the per-input witness blow-up.
        est = first * FILTER_SELECTIVITY
        if first > 1.0:
            est = max(est, structural_join_estimate(stats, first, first)
                      * FILTER_SELECTIVITY)
        bound = first * max(1.0, float(stats.max_depth))
        return _clamp(est, bound), first * _COST_COMPARE
    if name == "pick":
        return first * FILTER_SELECTIVITY, first * _COST_COMPARE
    if name == "project":
        return first, first * _COST_EMIT
    if name == "product":
        left = child_rows[0] if child_rows else 0.0
        right = child_rows[1] if len(child_rows) > 1 else 0.0
        est = _clamp(left * right, n_elements * n_elements)
        return est, est * _COST_EMIT
    if name == "value-join":
        left = child_rows[0] if child_rows else 0.0
        right = child_rows[1] if len(child_rows) > 1 else 0.0
        est = _clamp(left * right * JOIN_SELECTIVITY,
                     n_elements * n_elements)
        return est, left * right * _COST_COMPARE
    if name == "scored-union":
        est = sum(child_rows)
        return est, est * _COST_COMPARE
    if name == "union":
        est = sum(child_rows)
        return est, est * _COST_EMIT
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
