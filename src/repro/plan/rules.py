"""A compiled query's properties and its For-path's region fraction.

The compiler lowers the one compilable shape to one fixed plan
(:mod:`repro.query.compiler`), so nothing here is costed or chosen.
:class:`QuerySpec` and :func:`region_fraction` stay because the frozen
benchmark harness (``benchmarks/stack/traced.py``) imports them, and
:func:`region_fraction` is also the estimator's structural-filter
selectivity (:mod:`repro.plan.estimate`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence, Tuple

__all__ = ["QuerySpec", "region_fraction"]


@dataclass
class QuerySpec:
    """The frozen harness's contract: the properties of one compiled query."""

    terms: Sequence[str]
    phrase_mode: bool
    min_score: Optional[float] = None
    stop_after: Optional[int] = None
    sortby: bool = False
    n_regions: int = 0
    #: fraction of the corpus region span the For-path regions cover
    #: (the structural filter's selectivity) — see :func:`region_fraction`.
    region_fraction: float = 1.0


def region_fraction(store: Any, regions: Sequence[Tuple[int, int, int]],
                    ) -> float:
    """The frozen harness's contract: corpus span share the regions cover
    (``0.0`` for an empty table; ``1.0`` only for an empty corpus)."""
    total = 0
    for doc in store.documents():
        if len(doc):
            total += doc.ends[0] - doc.starts[0] + 1
    if total <= 0:
        return 1.0
    covered = sum(rend - rstart + 1 for _doc, rstart, rend in regions)
    return max(0.0, min(covered / float(total), 1.0))
