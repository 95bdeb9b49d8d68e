"""Plan-level estimation.

The compiler builds one fixed plan per compiled query; this package
says how many rows each of its operators should see, so that
``explain(analyze=True)`` and the audit log can show how wrong that was:

- :mod:`repro.plan.estimate` — a catalog-driven estimator that walks a
  compiled operator tree and annotates every node with ``est_rows`` /
  ``est_cost`` from :class:`~repro.xmldb.stats.StoreStatistics`
  (cached on the store keyed by ``store.generation``), plus the
  ``q-error`` metric surfaced by ``explain(analyze=True)``;
- :mod:`repro.plan.rules` / :mod:`repro.plan.optimizer` — only the
  names the frozen benchmark harness imports; nothing is costed or
  chosen.
"""

from repro.plan.estimate import (
    estimate_plan,
    phrase_estimate,
    publish_qerrors,
    qerror,
    term_estimate,
)

__all__ = [
    "estimate_plan", "phrase_estimate", "publish_qerrors", "qerror",
    "term_estimate",
]
