"""The execution pipeline: :func:`run_query_guarded` stages every served
query (normalize → cache lookup → compile → run → store → record),
running it under a :class:`~repro.resilience.guard.QueryGuard` with
:func:`execute_guarded` (compiled plan) or :func:`evaluate_guarded`
(reference evaluator).  Nothing else in ``repro`` calls those two.

This is also the layer that gives the guard's ``degrade`` flag its meaning:
trip exceptions raised deep inside operators or access-method merge
loops are caught here, the pipeline is closed cleanly, and the rows
already produced come back as a :class:`GuardedResult` flagged
``truncated`` — callers always get a well-formed result object instead
of a half-drained iterator.  In strict mode (``degrade=False``) the trip
propagates after cleanup.

Engine imports are deliberately lazy (inside the functions): the engine
itself imports :mod:`repro.resilience.guard` for its hot-loop checks, so
this module must not import the engine at module scope.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator, List, Optional

from repro import obs as _obs
from repro.errors import QueryAbortedError, ResourceExhaustedError
from repro.obs import events as _events
from repro.resilience.guard import (
    NullGuard,
    QueryGuard,
    install_guard,
    uninstall_guard,
)

if TYPE_CHECKING:
    from repro.perf.querycache import QueryCache
    from repro.query.functions import FunctionRegistry
    from repro.xmldb.store import XMLStore

__all__ = [
    "GuardedResult", "evaluate_guarded", "execute_guarded",
    "run_query_guarded",
]


@dataclass
class GuardedResult:
    """The outcome of one guarded execution.

    ``results`` is always a well-formed (possibly empty) list of scored
    trees.  ``truncated`` is ``True`` when a degrade-mode guard tripped;
    ``reason`` then carries the trip message and ``error`` the trip
    exception instance.  The results of a truncated run are exactly the
    prefix the pipeline emitted before the trip — for ranked plans
    (Sort/TopK sinks) that prefix is correctly ranked.

    :func:`run_query_guarded` also reports what ran: ``plan`` is the
    executed engine plan (``None`` on the evaluator fallback and on a
    result-cache hit) and ``compile_error`` the compiler's reason for
    declining.  Every miss compiles its own plan, so the plan belongs
    to this result whether or not a cache was passed.
    """

    results: List[object] = field(default_factory=list)
    truncated: bool = False
    reason: str = ""
    error: Optional[QueryAbortedError] = None
    plan: Optional[Any] = None
    compile_error: str = ""

    @property
    def n_results(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[object]:
        return iter(self.results)


def execute_guarded(plan: Any, guard: NullGuard) -> GuardedResult:
    """Open, drain, and close ``plan`` under ``guard``.

    The guard is installed for the duration (engine ``next()`` loops and
    access-method merge loops tick it); the output-row budget is enforced
    here at the sink — the plan is aborted *before* computing the row
    past the budget, so a run that trips on the budget still returns
    exactly ``max_rows`` rows in degrade mode.
    """
    out: List[object] = []
    trip: Optional[QueryAbortedError] = None
    max_rows = getattr(guard, "max_rows", None)
    # One span over the whole drain: the operators' own open/close
    # spans nest under it (same thread), so a request trace reads
    # guard execution → per-operator tree.
    span = _obs.RECORDER.begin_span("execute.guarded")
    install_guard(guard)
    opened = False
    try:
        try:
            plan.open()
            opened = True
            while True:
                if max_rows is not None and len(out) >= max_rows:
                    guard.trip_rows()
                item = plan.next()
                if item is None:
                    break
                out.append(item)
                if guard.active:
                    guard.count_row()
        except QueryAbortedError as exc:
            trip = exc
        finally:
            if opened:
                try:
                    plan.close()
                except Exception:
                    pass  # the trip (or success path) wins
            if isinstance(guard, QueryGuard):
                guard.publish()
    finally:
        uninstall_guard()
        _obs.RECORDER.end_span(span)
    if _obs.RECORDER.enabled:
        from repro.plan.estimate import publish_qerrors

        publish_qerrors(plan)
    ev = _events.current_event()
    if ev is not None:
        ev.note_guard(guard)
        ev.note_plan(plan)
    if trip is not None:
        if not guard.degrade:
            raise trip
        return GuardedResult(
            out, truncated=True, reason=str(trip), error=trip
        )
    return GuardedResult(out)


def run_query_guarded(store: "XMLStore", source: str,
                      guard: NullGuard = NullGuard(), *,
                      cache: "Optional[QueryCache]" = None,
                      registry: "Optional[FunctionRegistry]" = None,
                      ) -> GuardedResult:
    """Run a query string under ``guard``: the one execution pipeline
    (stage list and span names in ``docs/performance.md``).

    normalize → ``cache.lookup`` → compile → run → store → record.
    Compilable queries run on the pipelined engine via
    :func:`execute_guarded` (streaming enforcement); the rest fall back
    to the reference evaluator via :func:`evaluate_guarded`.

    ``cache`` engages a shared :class:`~repro.perf.querycache.
    QueryCache`: a result-tier hit is re-checked against the guard's
    row budget exactly like a finished evaluator run, a miss compiles
    afresh, and only complete, un-truncated answers are stored.  The
    cache is bypassed when ``registry`` is passed: the cache key cannot
    see it.
    """
    from repro.errors import QueryCompileError
    from repro.query import compile_query, parse_query

    if registry is not None:
        cache = None  # the cache key cannot see it
    rec = _obs.RECORDER
    with _events.observe_query(source) as ev:
        with rec.span("parse"):
            if cache is None:
                query = parse_query(source)
            else:
                norm = cache.normalize(source)
                query = norm.query
        cached = None
        if cache is not None:
            cspan = rec.begin_span("cache.lookup") if rec.enabled else None
            cached = cache.results.get(norm)
            if cspan is not None:
                cspan.attrs["hit"] = cached is not None
                rec.end_span(cspan)
            if ev is not None:
                ev.cache = "miss" if cached is None else "hit"
        if cached is not None:
            if ev is not None:
                ev.note_guard(guard)
            res = _within_row_budget(cached, guard)
        else:
            compile_error = ""
            try:
                plan = compile_query(store, query, registry)
            except QueryCompileError as exc:
                plan = None
                compile_error = str(exc)
            if plan is None:
                res = evaluate_guarded(store, query, guard, registry)
            else:
                res = execute_guarded(plan, guard)
            res.plan = plan
            res.compile_error = compile_error
            if cache is not None and not res.truncated:
                cache.results.put(norm, res.results)
        if ev is not None:
            ev.note_result(res.n_results, res.truncated, res.reason)
            if res.error is not None and not ev.guard_trip:
                # Trims of a finished list (evaluator fallback, cache
                # hit) never fire guard._trip, so the verdict comes
                # from the result's error instead.
                ev.guard_trip = type(res.error).__name__
        return res


def evaluate_guarded(store: "XMLStore", query: Any, guard: NullGuard,
                     registry: "Optional[FunctionRegistry]" = None,
                     ) -> GuardedResult:
    """Run a *parsed* query on the reference evaluator under ``guard``.

    The fallback half of :func:`run_query_guarded`.  Access-method
    ticks still bound the runtime, but the evaluator is not streaming,
    so the row budget applies to the finished result list: over-budget
    results raise in strict mode and are trimmed + flagged truncated in
    degrade mode.
    """
    from repro.query.evaluator import evaluate_query

    span = _obs.RECORDER.begin_span("execute.evaluate")
    install_guard(guard)
    try:
        try:
            # Explicit ticks bracket the evaluator: an already-expired
            # deadline (or cancelled token) trips immediately even when
            # the store is too small for any strided hot-loop check to
            # fire inside.
            if guard.active:
                guard.tick()
            results = evaluate_query(store, query, registry)
            if guard.active:
                guard.tick()
                for _ in results:
                    guard.count_row()
        except QueryAbortedError as exc:
            if not guard.degrade:
                raise
            return GuardedResult(
                [], truncated=True, reason=str(exc), error=exc
            )
        finally:
            ev = _events.current_event()
            if ev is not None:
                ev.note_guard(guard)
            if isinstance(guard, QueryGuard):
                guard.publish()
    finally:
        uninstall_guard()
        _obs.RECORDER.end_span(span)
    return _within_row_budget(results, guard)


def _within_row_budget(results: List[object],
                       guard: NullGuard) -> GuardedResult:
    """Apply the row budget to a *finished* result list (evaluator
    output or a result-cache hit): over budget raises in strict mode
    and is trimmed + flagged truncated in degrade mode."""
    max_rows = getattr(guard, "max_rows", None)
    if max_rows is not None and len(results) > max_rows:
        exc = ResourceExhaustedError(
            f"query exceeded its row budget of {max_rows}"
        )
        if not guard.degrade:
            raise exc
        return GuardedResult(
            results[:max_rows], truncated=True, reason=str(exc), error=exc
        )
    return GuardedResult(results)
