"""Profiled query execution: the machinery behind ``tix profile``.

:func:`profile_query` runs a query through the execution pipeline under
a fresh :class:`~repro.obs.Collector` and returns a
:class:`ProfileReport` bundling

- the executed plan (for :func:`repro.engine.base.explain` /
  :func:`~repro.engine.base.plan_stats`),
- the results,
- the metrics registry and span tree,
- the store's logical-I/O counter deltas.

Queries outside the compilable shape fall back to the reference
evaluator: the report then has no plan tree, but parse/evaluate spans
and whatever metrics the evaluator's access paths recorded are still
available (``report.compiled`` tells which path ran).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro import obs
from repro.obs.trace import render_span_tree

if TYPE_CHECKING:
    from repro.query.functions import FunctionRegistry
    from repro.xmldb.store import XMLStore

__all__ = ["ProfileReport", "profile_query"]


@dataclass
class ProfileReport:
    """Everything observed while executing one query."""

    query: str
    compiled: bool
    results: List[object]
    collector: obs.Collector
    plan: Optional[object] = None          # engine Operator when compiled
    store_counters: Dict[str, int] = field(default_factory=dict)
    compile_error: Optional[str] = None

    @property
    def n_results(self) -> int:
        return len(self.results)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready report (the ``tix profile --json`` payload)."""
        from repro.engine.base import plan_stats

        return {
            "query": self.query,
            "compiled": self.compiled,
            "compile_error": self.compile_error,
            "n_results": self.n_results,
            "plan": plan_stats(self.plan) if self.plan is not None else None,
            "metrics": self.collector.metrics.snapshot(),
            "trace": self.collector.tracer.to_dict(),
            "store_counters": dict(self.store_counters),
        }

    def render(self) -> str:
        """Human-readable report: EXPLAIN ANALYZE tree, phase timings,
        metrics."""
        from repro.engine.base import explain

        lines: List[str] = []
        if self.plan is not None:
            lines.append("EXPLAIN ANALYZE")
            lines.append(explain(self.plan, analyze=True))
        else:
            lines.append(
                "plan: not compilable (evaluator fallback)"
                + (f" — {self.compile_error}" if self.compile_error else "")
            )
        lines.append("")
        lines.append("phases:")
        for span in self.collector.tracer.to_dict()["spans"]:
            lines.extend(render_span_tree(span, 1, max_depth=3))
        if self.store_counters:
            lines.append("")
            lines.append("store counters (logical I/O):")
            for name in sorted(self.store_counters):
                lines.append(f"  {name}: {self.store_counters[name]}")
        metrics_text = self.collector.metrics.render()
        if metrics_text:
            lines.append("")
            lines.append("metrics:")
            lines.extend("  " + ln for ln in metrics_text.splitlines())
        lines.append("")
        lines.append(f"({self.n_results} results)")
        return "\n".join(lines)

    def write_chrome_trace(self, path: str) -> None:
        """Write the span tree in Chrome ``traceEvents`` format."""
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.collector.tracer.to_chrome_trace(), f, indent=2)


def profile_query(store: "XMLStore", source: str,
                  registry: "Optional[FunctionRegistry]" = None,
                  ) -> ProfileReport:
    """Execute ``source`` against ``store`` under a fresh collector.

    Runs the one execution pipeline
    (:func:`~repro.resilience.run.run_query_guarded`, unguarded and
    uncached) and reads the plan back from its result.
    """
    from repro.resilience.run import run_query_guarded

    before = store.counters.snapshot()
    with obs.collecting() as col:
        with col.span("query"):
            res = run_query_guarded(store, source, registry=registry)
        store.counters.publish(col)
    after = store.counters.snapshot()
    return ProfileReport(
        query=source,
        compiled=res.plan is not None,
        results=res.results,
        collector=col,
        plan=res.plan,
        store_counters={k: after[k] - before[k] for k in after},
        compile_error=res.compile_error or None,
    )
