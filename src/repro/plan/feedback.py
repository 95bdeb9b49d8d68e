"""Misestimation feedback from the query audit log (``tix feedback``).

The audit log (:mod:`repro.obs.events`) records, per query, the top
plan operators with their actual row counts and the estimator's
``est_rows`` for each.  This module
closes the observe-then-adapt loop: it aggregates those records into a
report of the **worst-misestimated operators and query shapes** —
occurrence count, median / max q-error, mean estimated vs actual rows —
the adaptive re-costing input a cost-based planner consumes.

Only the current audit schema is read: records of any other version
(older logs included) are counted in ``n_skipped``, never a crash.
Current records without estimates (evaluator-fallback queries) are
tallied as ``n_without_estimates`` instead of being dropped silently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import median
from typing import Dict, Iterable, List, Tuple

from repro.obs.events import SCHEMA_VERSION
from repro.plan.estimate import qerror

__all__ = [
    "SUPPORTED_EVENT_VERSIONS", "OpFeedback", "FeedbackReport",
    "feedback_report",
]

#: Audit-log schema versions this reader understands.
SUPPORTED_EVENT_VERSIONS = (SCHEMA_VERSION,)


@dataclass
class OpFeedback:
    """Aggregate misestimation of one operator (or query shape)."""

    key: str
    count: int
    median_qerror: float
    max_qerror: float
    mean_est_rows: float
    mean_actual_rows: float

    def to_dict(self) -> Dict[str, object]:
        return {
            "key": self.key,
            "count": self.count,
            "median_qerror": round(self.median_qerror, 3),
            "max_qerror": round(self.max_qerror, 3),
            "mean_est_rows": round(self.mean_est_rows, 1),
            "mean_actual_rows": round(self.mean_actual_rows, 1),
        }


@dataclass
class FeedbackReport:
    """The aggregated misestimation report."""

    n_records: int = 0
    n_skipped: int = 0
    n_without_estimates: int = 0
    operators: List[OpFeedback] = field(default_factory=list)
    shapes: List[OpFeedback] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {
            "n_records": self.n_records,
            "n_skipped": self.n_skipped,
            "n_without_estimates": self.n_without_estimates,
            "operators": [o.to_dict() for o in self.operators],
            "shapes": [s.to_dict() for s in self.shapes],
        }

    def render(self, limit: int = 10) -> str:
        """Human-readable report, worst median q-error first."""
        lines: List[str] = [
            f"{self.n_records} audit records "
            f"({self.n_without_estimates} without estimates, "
            f"{self.n_skipped} unsupported-version)",
        ]
        for title, entries in (("operators", self.operators),
                               ("query shapes", self.shapes)):
            if not entries:
                continue
            lines.append("")
            lines.append(f"worst-misestimated {title}:")
            lines.append(
                f"  {'count':>5} {'med-q':>8} {'max-q':>8} "
                f"{'est-rows':>9} {'act-rows':>9}  key"
            )
            for e in entries[:limit]:
                lines.append(
                    f"  {e.count:>5} {e.median_qerror:>8.2f} "
                    f"{e.max_qerror:>8.2f} {e.mean_est_rows:>9.1f} "
                    f"{e.mean_actual_rows:>9.1f}  {e.key}"
                )
        if not self.operators:
            lines.append("")
            lines.append(
                "no per-operator estimates found — the log holds "
                "evaluator-fallback queries only"
            )
        return "\n".join(lines)


def _op_qerror(op: Dict[str, object]) -> Tuple[bool, float, float, float]:
    """``(has_estimate, q, est, actual)`` for one logged operator."""
    est = op.get("est_rows")
    actual = op.get("rows")
    if not isinstance(est, (int, float)) \
            or not isinstance(actual, (int, float)):
        return False, 0.0, 0.0, 0.0
    q = op.get("q_error")
    if not isinstance(q, (int, float)):
        q = qerror(float(est), float(actual))
    return True, float(q), float(est), float(actual)


def _aggregate(samples: Dict[str, List[Tuple[float, float, float]]],
               min_count: int) -> List[OpFeedback]:
    out: List[OpFeedback] = []
    for key, rows in samples.items():
        if len(rows) < min_count:
            continue
        qs = [q for q, _e, _a in rows]
        out.append(OpFeedback(
            key=key,
            count=len(rows),
            median_qerror=float(median(qs)),
            max_qerror=max(qs),
            mean_est_rows=sum(e for _q, e, _a in rows) / len(rows),
            mean_actual_rows=sum(a for _q, _e, a in rows) / len(rows),
        ))
    out.sort(key=lambda e: (e.median_qerror, e.max_qerror, e.count),
             reverse=True)
    return out


def feedback_report(records: Iterable[Dict[str, object]],
                    min_count: int = 1) -> FeedbackReport:
    """Aggregate audit-log ``records`` (parsed JSONL, see
    :func:`repro.obs.events.iter_events`) into a
    :class:`FeedbackReport`.  ``min_count`` drops operators / shapes
    seen fewer times than that (singletons are noise at scale)."""
    report = FeedbackReport()
    by_op: Dict[str, List[Tuple[float, float, float]]] = {}
    by_shape: Dict[str, List[Tuple[float, float, float]]] = {}
    for record in records:
        version = record.get("v")
        if version not in SUPPORTED_EVENT_VERSIONS:
            report.n_skipped += 1
            continue
        report.n_records += 1
        ops = record.get("ops")
        shape = str(record.get("query_sha256", ""))
        saw_estimate = False
        if isinstance(ops, list):
            for op in ops:
                if not isinstance(op, dict):
                    continue
                has, q, est, actual = _op_qerror(op)
                if not has:
                    continue
                saw_estimate = True
                key = str(op.get("operator", "?"))
                by_op.setdefault(key, []).append((q, est, actual))
                if shape:
                    by_shape.setdefault(shape, []).append(
                        (q, est, actual)
                    )
        if not saw_estimate:
            report.n_without_estimates += 1
    report.operators = _aggregate(by_op, min_count)
    report.shapes = _aggregate(by_shape, min_count)
    return report
