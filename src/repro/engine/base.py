"""Iterator-protocol base for physical operators.

Every operator implements the classic Volcano protocol:

- :meth:`Operator.open` — prepare; must be called before ``next``;
- :meth:`Operator.next` — produce the next item or ``None`` at end;
- :meth:`Operator.close` — release resources (closes children).

Operators form a tree via ``children``.  Items flowing between operators
are :class:`~repro.core.trees.STree` instances (collections of scored
trees are streams of scored trees).

Execution helpers: :func:`execute` drains a plan into a list;
:func:`plan_stats` reports the most recent run as a JSON-ready dict, one
node per operator — the **one producer** of per-operator facts (rows,
estimate, q-error, loops, inclusive and self time, access-method
counters): :func:`explain` formats it (its output is stable and used in
tests; ``analyze=True`` is the EXPLAIN ANALYZE path — see
``docs/observability.md``), ``close()`` puts the operator's own node on
its close span, and the audit line's ``ops`` and the ``estimate.qerror``
histogram read it.

Observability contract: every operator owns an :class:`OpStats`.  Row
counts and subclass-reported counters are maintained on every run;
``loops`` and the *timings* are taken only while a collector is
installed (``obs.RECORDER.enabled``), so the disabled path adds a single
attribute test per ``next()`` call.  ``open``/``close`` additionally
emit tracer spans, which nest into a span tree mirroring the plan tree.
Spans cannot replace :class:`OpStats`: rows and counters must be exact
with no collector installed.
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro import obs as _obs
from repro.core.trees import STree
from repro.errors import PlanError
from repro.plan.estimate import qerror
from repro.resilience import guard as _resguard

#: Operator lifecycle states.  ``open()`` moves NEW/CLOSED → OPEN,
#: ``close()`` moves OPEN → CLOSED; a closed operator may be re-opened.
_NEW, _OPEN, _CLOSED = "new", "open", "closed"


class OpStats:
    """Per-operator execution statistics for one run.

    ``rows_out`` and ``counters`` are exact on every run; ``loops``
    and the ``*_ns`` timings are populated only when a collector is
    installed (so ``loops == 0`` does not mean the operator never ran).
    ``next_ns`` is *inclusive* (a parent's ``_next`` usually calls its
    children's ``next`` inside it), like PostgreSQL's EXPLAIN ANALYZE
    "actual time"; :func:`plan_stats` derives exclusive self-time.
    """

    __slots__ = ("loops", "open_ns", "next_ns", "close_ns", "counters")

    def __init__(self) -> None:
        self.loops = 0
        self.open_ns = 0
        self.next_ns = 0
        self.close_ns = 0
        self.counters: Dict[str, int] = {}

    def reset(self) -> None:
        self.loops = 0
        self.open_ns = 0
        self.next_ns = 0
        self.close_ns = 0
        self.counters.clear()

    @property
    def total_ns(self) -> int:
        return self.open_ns + self.next_ns + self.close_ns


class Operator:
    """Base physical operator."""

    #: short name used by explain(); subclasses override
    name = "operator"

    def __init__(self, children: Sequence["Operator"] = ()):
        self.children: List[Operator] = list(children)
        self._state = _NEW
        self.rows_out = 0
        self.stats = OpStats()
        #: Estimated output cardinality / cumulative cost, annotated by
        #: :func:`repro.plan.estimate.estimate_plan` at compile time
        #: (``None`` on hand-built plans).  Plan properties, not run
        #: stats: they survive ``open()``'s recursive stats reset so
        #: EXPLAIN ANALYZE can show estimated-vs-actual afterwards.
        self.est_rows: Optional[float] = None
        self.est_cost: Optional[float] = None

    @property
    def _opened(self) -> bool:
        """Back-compat view of the lifecycle state."""
        return self._state is _OPEN

    # -- protocol ---------------------------------------------------------

    def open(self) -> None:
        """Prepare this operator and its children for iteration.

        Error safety: if any child's ``open()`` or this operator's
        ``_open()`` raises, every child opened so far is closed again and
        this operator is left un-opened — the tree stays in a consistent,
        re-openable state instead of leaking opened children.
        """
        if self._state is _OPEN:
            raise PlanError(f"{self.name}: open() called twice")
        self._state = _OPEN
        self.rows_out = 0
        self.stats.reset()
        rec = _obs.RECORDER
        enabled = rec.enabled
        if enabled:
            span = rec.begin_span("open:" + self.name, op=self.describe())
            t0 = perf_counter_ns()
        opened: List[Operator] = []
        try:
            for child in self.children:
                child.open()
                opened.append(child)
            self._open()
        except BaseException:
            self._state = _NEW
            for child in reversed(opened):
                try:
                    child.close()
                except Exception:
                    pass  # the original error wins
            if enabled:
                rec.end_span(span)
            raise
        if enabled:
            self.stats.open_ns = perf_counter_ns() - t0
            rec.end_span(span)

    def next(self) -> Optional[STree]:
        """Next output tree, or ``None`` when exhausted.

        Raises :class:`~repro.errors.PlanError` when driven outside the
        protocol (before ``open()`` or after ``close()``), and ticks the
        installed :class:`~repro.resilience.QueryGuard` once per call so
        any pipelined plan is deadline/cancellation-responsive even when
        its operators have no hot inner loops of their own."""
        if self._state is not _OPEN:
            if self._state is _CLOSED:
                raise PlanError(f"{self.name}: next() after close()")
            raise PlanError(f"{self.name}: next() before open()")
        g = _resguard.GUARD
        if g.active:
            g.tick()
        if _obs.RECORDER.enabled:
            st = self.stats
            st.loops += 1
            t0 = perf_counter_ns()
            item = self._next()
            st.next_ns += perf_counter_ns() - t0
        else:
            item = self._next()
        if item is not None:
            self.rows_out += 1
        return item

    def close(self) -> None:
        """Release resources; children are closed too."""
        if self._state is not _OPEN:
            if self._state is _CLOSED:
                raise PlanError(f"{self.name}: close() called twice")
            raise PlanError(f"{self.name}: close() before open()")
        self._state = _CLOSED
        rec = _obs.RECORDER
        if rec.enabled:
            st = self.stats
            span = rec.begin_span("close:" + self.name)
            t0 = perf_counter_ns()
            try:
                self._close()
                for child in self.children:
                    child.close()
            finally:
                st.close_ns = perf_counter_ns() - t0
                if span is not None:
                    span.attrs.update(_node_stats(self))
                rec.end_span(span)
                rec.count(f"operator.{self.name}.rows", self.rows_out)
                rec.observe(f"operator.{self.name}.time_ms",
                            st.total_ns / 1e6)
        else:
            self._close()
            for child in self.children:
                child.close()

    # -- subclass hooks ----------------------------------------------------

    def _open(self) -> None:  # pragma: no cover - default no-op
        pass

    def _next(self) -> Optional[STree]:
        raise NotImplementedError

    def _close(self) -> None:  # pragma: no cover - default no-op
        pass

    # -- conveniences -------------------------------------------------------

    def __iter__(self) -> Iterator[STree]:
        """Iterate an opened operator (does not open/close itself)."""
        while True:
            item = self.next()
            if item is None:
                return
            yield item

    def describe(self) -> str:
        """One-line description used by explain(); override to include
        parameters."""
        return self.name


def execute(plan: Operator) -> List[STree]:
    """Open, drain, and close a plan; returns all produced trees."""
    plan.open()
    try:
        return list(plan)
    finally:
        plan.close()


def explain(plan: Operator, analyze: bool = False) -> str:
    """Render the plan tree, one operator per line, with row counts from
    the most recent execution (a formatting of :func:`plan_stats`); an
    operator that never ran shows no row count.

    Plans annotated by the estimator additionally show
    ``(est_rows=N)`` per line; with ``analyze=True`` the estimate moves
    into the bracket next to the actual row count along with the
    per-operator q-error (``max(est/actual, actual/est)``, 1-safe), so
    estimated-vs-actual reads off one line.

    With ``analyze=True`` each line additionally shows cumulative
    operator time (inclusive of children, measured only when a collector
    was installed during the run), ``next()`` call count, and any
    access-method counters the operator reported::

        termjoin-scan(...) [time=1.742ms rows=42 est_rows=38
                            q_error=1.11 loops=43 postings_scanned=1204]
    """
    lines: List[str] = []

    def walk(node: Dict[str, Any], depth: int) -> None:
        est, rows = node["est_rows"], node["rows"]
        if analyze:
            parts = [f"time={node['time_ms']:.3f}ms"]
            if rows is not None:
                parts.append(f"rows={rows}")
            if est is not None:
                parts.append(f"est_rows={est:.0f}")
            if node["q_error"] is not None:
                parts.append(f"q_error={node['q_error']:.2f}")
            parts.append(f"loops={node['loops']}")
            counters = node["counters"]
            parts += [f"{key}={counters[key]}" for key in sorted(counters)]
            line = f"{node['describe']} [{' '.join(parts)}]"
        else:
            line = node["describe"]
            if rows is not None:
                line += f" [rows={rows}]"
            if est is not None:
                line += f" (est_rows={est:.0f})"
        lines.append("  " * depth + line)
        for child in node["children"]:
            walk(child, depth + 1)

    walk(plan_stats(plan), 0)
    return "\n".join(lines)


def _node_stats(op: Operator) -> Dict[str, Any]:
    """One operator's own :func:`plan_stats` node, children left out."""
    st = op.stats
    child_ns = sum(c.stats.total_ns for c in op.children)
    est = op.est_rows
    # A never-opened operator has no actuals (loops count only under a
    # collector, so the lifecycle state is what tells "never ran").
    rows = None if op._state is _NEW else op.rows_out
    return {
        "operator": op.name,
        "describe": op.describe(),
        "rows": rows,
        "est_rows": est,
        "q_error": (qerror(est, rows)
                    if est is not None and rows is not None else None),
        "loops": st.loops,
        "time_ms": st.total_ns / 1e6,
        "self_time_ms": max(0, st.total_ns - child_ns) / 1e6,
        "counters": dict(st.counters),
    }


def plan_stats(plan: Operator) -> Dict[str, Any]:
    """EXPLAIN ANALYZE data for the most recent run, as a JSON-ready
    nested dict (one node per operator).

    ``time_ms`` is inclusive of children; ``self_time_ms`` subtracts the
    children's inclusive totals (clamped at zero — blocking operators
    that drain a child inside ``_open`` overlap with it).

    ``rows`` is ``None`` on an operator that was never opened (a plan
    compiled but not run), and so is ``q_error``.  ``est_rows``/
    ``q_error`` are ``None`` on plans the estimator never annotated
    (hand-built trees); otherwise ``q_error`` compares the estimate
    against this run's actual row count."""
    out = _node_stats(plan)
    out["children"] = [plan_stats(c) for c in plan.children]
    return out


def plan_nodes(plan: Operator) -> Iterator[Dict[str, Any]]:
    """Every :func:`plan_stats` node of ``plan``, parents before
    children (the flat view the audit line and the q-error histogram
    read)."""
    pending = [plan_stats(plan)]
    while pending:
        node = pending.pop()
        yield node
        pending.extend(reversed(node["children"]))
