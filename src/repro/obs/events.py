"""The request record and the structured query audit log.

Metrics (:mod:`repro.obs.metrics`) answer *how much* the engine is
doing; the record answers *what happened to each query* — what a
production operator greps when a user reports a slow or failing
request.  :class:`QueryEvent` is the **one** record of a request's
identity, timing and fate: the audit log prints it as a
schema-versioned JSONL line (:meth:`QueryEvent.to_record`), the trace
store lists it as a ``traces`` row (:meth:`QueryEvent.summary`) and
keeps its span tree.  Field by field — who writes it, which projection
shows it — in ``docs/observability.md`` ("Request record").

Every query that runs the execution pipeline
(:func:`repro.resilience.run.run_query_guarded`; stages in
``docs/performance.md``) under an installed sink, and every request a
:class:`~repro.server.server.QueryServer` answers, is one record
carrying

- a stable hash of the query text (never the text itself — query
  strings may embed user data),
- the outcome (``ok`` / ``truncated`` / ``error``) with the guard
  verdict and degradation flag,
- wall time and row count,
- result-cache hit/miss,
- the top operators of the executed plan (from
  :func:`repro.engine.base.plan_stats`).

The sink follows the recorder's **zero-overhead contract**: the
module-level :data:`SINK` is a :class:`NullSink` by default, and
:func:`observe_query` returns a shared no-op context manager when no
sink is installed and no record is open — instrumented entry points pay
one attribute test and one call per *query* (never per tuple).  Nested
observations (the query server or ``execute_batch`` around
``run_query_guarded``) share one record per query: the outermost owner
opens it (``with record:``) and owns emission, inner layers annotate
it via :func:`observe_query` / :func:`current_event`.

:class:`JsonlSink` adds production controls: a **sampling rate**
(deterministic under a fixed ``seed``) bounds log volume, and a
**slow-query threshold** force-logs outliers regardless of sampling so
the tail is never sampled away.
"""

from __future__ import annotations

import hashlib
import json
import random
import threading
import time
from contextlib import contextmanager, nullcontext
from types import TracebackType
from typing import (
    IO,
    TYPE_CHECKING,
    Any,
    ContextManager,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Type,
    Union,
)

from repro import obs as _obs

if TYPE_CHECKING:
    from repro.obs.trace import Span
    from repro.obs.tracestore import TraceContext

__all__ = [
    "SCHEMA_VERSION", "QueryEvent", "NullSink", "JsonlSink", "SINK",
    "install_sink", "uninstall_sink", "logging_queries", "observe_query",
    "current_event", "query_hash", "plan_top_ops", "iter_events",
    "filter_events",
]

#: Version of the JSONL record layout (the ``"v"`` field).  Bump when a
#: field changes meaning or disappears; adding fields is compatible.
#:
#: - v1: initial layout;
#: - v2: per-operator ``est_rows``/``q_error`` in ``ops`` (``None`` on
#:   plans the estimator never annotated);
#: - v3: ``trace_id`` joins the record to the server's retained
#:   distributed trace ("" for untraced executions).  Added since:
#:   ``error_code`` (the wire code of a served failure);
#: - v4: the plan-tier verdict is dropped — plans are no longer cached,
#:   so ``cache`` (the answer tier) is the one cache verdict.
SCHEMA_VERSION = 4


def query_hash(source: str) -> str:
    """Stable 16-hex-digit SHA-256 prefix of the query text — enough to
    correlate repeats without logging user-provided query strings."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()[:16]


# Handed between threads, never written concurrently: only the thread
# answering the request writes its record; the trace store's readers
# (snapshots, ``traces`` lookups) see plain attribute reads.
class QueryEvent:
    """One request's record: identity, timing and fate.

    The owner opens it (``with record:`` — the query server around a
    whole request, :func:`observe_query` around one pipeline run) and
    the wired entry points stamp facts as they become known (cache
    tier verdicts, guard trips, plan stats); the ``note_*`` methods are
    the only writers of outcome, truncation and error.  Leaving the
    block stamps the end time and hands the record to the sink.

    Two projections: :meth:`to_record` freezes the schema-versioned
    audit line, :meth:`summary` / :meth:`to_dict` the ``traces`` row
    and span tree.  ``context`` (a
    :class:`~repro.obs.tracestore.TraceContext`) makes the record part
    of a distributed trace; without one ``trace_id`` stays "" (a local,
    untraced execution).
    """

    __slots__ = (
        "trace_id", "parent_span_id", "attempt", "kind", "query_sha256",
        "ts", "start_ns", "end_ns", "queued_ms",
        "outcome", "rows", "truncated", "reason", "error_type",
        "error_code", "cache", "guarded", "guard_degrade",
        "guard_trip", "degraded", "ops",
        "retained_for", "head_sampled", "root", "store_key",
    )

    def __init__(self, source: str, kind: str = "query",
                 context: "Optional[TraceContext]" = None) -> None:
        if context is not None:
            self.trace_id = context.trace_id
            self.parent_span_id = context.parent_span_id
            self.attempt = context.attempt
        else:
            self.trace_id = self.parent_span_id = ""
            self.attempt = 0
        self.kind = kind
        self.query_sha256 = query_hash(source)
        self.ts = time.time()
        self.start_ns = time.perf_counter_ns()
        self.end_ns: Optional[int] = None
        self.queued_ms = 0.0           # admission queue wait (server)
        self.outcome = "ok"            # ok | truncated | error
        self.rows = 0
        self.truncated = False
        self.reason = ""
        self.error_type = ""
        self.error_code = ""           # wire error code (server)
        self.cache = ""                # result tier: hit | miss | ""
        self.guarded = False
        self.guard_degrade = False     # the guard ran in degrade mode
        self.guard_trip = ""           # exception type name of the trip
        self.degraded = False          # admission tightened the budgets
        self.ops: List[Dict[str, object]] = []
        # Trace-store bookkeeping.
        self.retained_for = ""         # slow | error | degraded | sampled
        self.head_sampled = False
        self.root: "Optional[Span]" = None
        self.store_key = self.trace_id  # registry key (uniquified on retry)

    # -- lifecycle -----------------------------------------------------

    def __enter__(self) -> "QueryEvent":
        _STATE.stack.append(self)
        return self

    def __exit__(self, exc_type: Optional[Type[BaseException]],
                 exc: Optional[BaseException],
                 tb: Optional[TracebackType]) -> bool:
        stack = _STATE.stack
        if stack and stack[-1] is self:
            stack.pop()
        self.end_ns = time.perf_counter_ns()
        if exc_type is not None:
            self.note_error(exc_type.__name__, str(exc) if exc else "")
        SINK.emit(self)
        return False

    @property
    def completed(self) -> bool:
        return self.end_ns is not None

    @property
    def wall_ms(self) -> float:
        """Elapsed time: final once completed, running while in
        flight."""
        end = self.end_ns
        if end is None:
            end = time.perf_counter_ns()
        return (end - self.start_ns) / 1e6

    @property
    def n_spans(self) -> int:
        return self.root.n_spans() if self.root is not None else 0

    # -- annotation helpers (called by the wired entry points) ---------

    def note_guard(self, guard: object) -> None:
        """Record the guard verdict: active/degrade flags plus the trip
        exception type when the guard tripped."""
        if not getattr(guard, "active", False):
            return
        self.guarded = True
        self.guard_degrade = bool(getattr(guard, "degrade", False))
        tripped = getattr(guard, "tripped", None)
        if tripped is not None:
            self.guard_trip = type(tripped).__name__

    def note_result(self, n_rows: int, truncated: bool = False,
                    reason: str = "") -> None:
        """Record a well-formed result: row count and truncation."""
        self.rows = n_rows
        self.truncated = truncated
        self.reason = reason
        self.outcome = "truncated" if truncated else "ok"

    def note_error(self, error_type: str, reason: str = "") -> None:
        """Record a per-query failure (captured or propagating)."""
        self.outcome = "error"
        self.error_type = error_type
        if reason:
            self.reason = reason

    def note_plan(self, plan: object, limit: int = 3) -> None:
        """Attach the executed plan's top operators (by inclusive
        time, then rows) from :func:`repro.engine.base.plan_stats`.
        Only the audit line prints them, so the plan is walked only
        when a sink will."""
        if SINK.enabled:
            self.ops = plan_top_ops(plan, limit=limit)

    # -- projections ---------------------------------------------------

    def to_record(self) -> Dict[str, object]:
        """The schema-versioned audit line (see ``SCHEMA_VERSION``)."""
        return {
            "v": SCHEMA_VERSION,
            "ts": self.ts,
            "kind": self.kind,
            "query_sha256": self.query_sha256,
            "outcome": self.outcome,
            "wall_ms": round(self.wall_ms, 3),
            "rows": self.rows,
            "truncated": self.truncated,
            "reason": self.reason,
            "error_type": self.error_type,
            "error_code": self.error_code,
            "cache": self.cache,
            "guard": {
                "active": self.guarded,
                "degraded": self.guard_degrade,
                "trip": self.guard_trip,
            },
            "ops": list(self.ops),
            "trace_id": self.trace_id,
        }

    def summary(self) -> Dict[str, Any]:
        """The flat listing row (``tix top``, the ``traces`` wire op);
        the outcome shows once the request has completed."""
        completed = self.completed
        return {
            "trace_id": self.trace_id,
            "parent_span_id": self.parent_span_id,
            "attempt": self.attempt,
            "op": self.kind,
            "query_sha256": self.query_sha256,
            "ts": round(self.ts, 3),
            "status": "completed" if completed else "inflight",
            "wall_ms": round(self.wall_ms, 3),
            "queued_ms": round(self.queued_ms, 3),
            "outcome": self.outcome if completed else "",
            "error_code": self.error_code,
            "degraded": self.degraded,
            "truncated": self.truncated,
            "retained_for": self.retained_for,
            "n_spans": self.n_spans,
        }

    def to_dict(self) -> Dict[str, Any]:
        """Summary plus the nested span tree (snapshot-safe: open
        spans of an in-flight request export as well-formed
        partials)."""
        d = self.summary()
        root = self.root
        d["spans"] = (
            root.to_dict(time.perf_counter_ns())
            if root is not None else None
        )
        return d


def plan_top_ops(plan: Any, limit: int = 3) -> List[Dict[str, object]]:
    """The ``limit`` most expensive operators of an executed plan as
    flat ``{operator, rows, est_rows, q_error, time_ms}`` dicts, ordered
    by inclusive time (rows break ties — timings are zero when no
    collector ran).  ``rows``/``q_error`` are ``None`` for an operator
    a guard trip left unopened, and ``est_rows``/``q_error`` when the
    estimator never annotated the plan (schema v2; see
    ``SCHEMA_VERSION``)."""
    from repro.engine.base import plan_nodes

    ranked: List[Any] = []
    for node in plan_nodes(plan):
        time_ms = float(node["time_ms"])
        rows = node["rows"]
        est = node["est_rows"]
        q = node["q_error"]
        ranked.append((time_ms, rows or 0, {
            "operator": node["describe"],
            "rows": rows,
            "est_rows": round(float(est), 1) if est is not None else None,
            "q_error": round(float(q), 3) if q is not None else None,
            "time_ms": round(time_ms, 3),
        }))
    ranked.sort(key=lambda entry: (entry[0], entry[1]), reverse=True)
    return [entry[2] for entry in ranked[:limit]]


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------

class NullSink:
    """The default sink: disabled, every method a no-op."""

    enabled = False

    def emit(self, event: QueryEvent) -> None:
        pass

    def close(self) -> None:
        pass


class JsonlSink(NullSink):
    """Append-only JSONL sink with sampling and slow-query force-log.

    :param target: a path (opened in append mode and owned by the sink)
        or an open text file object (borrowed — ``close()`` leaves it
        open);
    :param sample_rate: fraction of events written (``1.0`` = all).
        The decision sequence is drawn from ``random.Random(seed)``, so
        a fixed seed makes sampling reproducible;
    :param slow_ms: wall-time threshold above which an event is written
        regardless of sampling, with ``"slow": true`` in the record —
        the latency tail is never sampled away.

    Writes are lock-serialized (one JSON object per line, flushed), so
    the batch executor's workers can share one sink.
    """

    enabled = True

    def __init__(self, target: Union[str, IO[str]], *,
                 sample_rate: float = 1.0,
                 slow_ms: Optional[float] = None,
                 seed: Optional[int] = None) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(
                f"sample_rate {sample_rate} outside [0, 1]"
            )
        if isinstance(target, str):
            self.path: Optional[str] = target
            # Long-lived handle by design: the sink IS the owner and
            # close() releases it.
            self._fh: IO[str] = open(  # tix-lint: disable=resource-safety
                target, "a", encoding="utf-8"
            )
            self._owns = True
        else:
            self.path = getattr(target, "name", None)
            self._fh = target
            self._owns = False
        self.sample_rate = sample_rate
        self.slow_ms = slow_ms
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self.emitted = 0
        self.sampled_out = 0
        self.slow_forced = 0

    def emit(self, event: QueryEvent) -> None:
        slow = (
            self.slow_ms is not None and event.wall_ms >= self.slow_ms
        )
        with self._lock:
            # One draw per event, slow or not, so the decision sequence
            # under a fixed seed does not depend on observed latencies.
            drawn = (
                self.sample_rate >= 1.0
                or self._rng.random() < self.sample_rate
            )
            if not (drawn or slow):
                self.sampled_out += 1
                rec = _obs.RECORDER
                if rec.enabled:
                    rec.count("obs.events.sampled_out")
                return
            record = event.to_record()
            record["slow"] = slow
            if slow and not drawn:
                self.slow_forced += 1
            self.emitted += 1
            # Writing under the lock is this sink's contract: one
            # JSON line per event, never interleaved across threads.
            # It is the one blocking call under a lock that
            # docs/static-analysis.md ("Lock ranks") names.
            self._fh.write(json.dumps(record, sort_keys=True) + "\n")
            self._fh.flush()
        rec = _obs.RECORDER
        if rec.enabled:
            rec.count("obs.events.emitted")
            if slow and not drawn:
                rec.count("obs.events.slow_forced")

    def close(self) -> None:
        if self._owns:
            self._fh.close()


# ----------------------------------------------------------------------
# Installation + the observe_query entry point
# ----------------------------------------------------------------------

#: The process-wide sink.  Read via ``events.SINK`` at call time.
SINK: NullSink = NullSink()

_sink_stack: List[NullSink] = []


def install_sink(sink: NullSink) -> None:
    """Install ``sink`` as the active audit-log sink.  Installs nest:
    :func:`uninstall_sink` restores the previously active sink."""
    global SINK
    _sink_stack.append(SINK)
    SINK = sink


def uninstall_sink() -> None:
    """Restore the sink active before the last :func:`install_sink`."""
    global SINK
    if not _sink_stack:
        raise RuntimeError(
            "uninstall_sink() without a matching install_sink()"
        )
    SINK = _sink_stack.pop()


@contextmanager
def logging_queries(target: Union[str, IO[str]],
                    **kwargs: Any) -> Iterator[JsonlSink]:
    """Install a fresh :class:`JsonlSink` for the duration of the
    block (keyword arguments are forwarded to the sink)."""
    sink = JsonlSink(target, **kwargs)
    install_sink(sink)
    try:
        yield sink
    finally:
        uninstall_sink()
        sink.close()


class _EventState(threading.local):
    """Per-thread stack of open records: the outermost owner emits,
    nested ``observe_query`` blocks annotate it."""

    def __init__(self) -> None:
        self.stack: List[QueryEvent] = []


_STATE = _EventState()


def current_event() -> Optional[QueryEvent]:
    """The calling thread's open record (``None`` when no query is
    being observed).  Annotation sites (cache tiers, guarded executors)
    use this to enrich the record without owning it."""
    stack = _STATE.stack
    return stack[-1] if stack else None


#: Shared by every disabled observation: that path allocates nothing.
_NO_RECORD: "ContextManager[None]" = nullcontext()


def observe_query(
    source: str, kind: str = "query",
) -> "ContextManager[Optional[QueryEvent]]":
    """Observe one query execution.

    Usage at an entry point::

        with events.observe_query(source) as ev:
            res = ...
            if ev is not None:
                ev.note_result(len(res))

    When the calling thread already has an open record (the query
    server's, or an outer ``observe_query``), that record is yielded
    and emission stays with its owner — nested entry points annotate
    one shared record instead of double-logging.  Otherwise a fresh
    record is opened when a sink is installed, and a shared no-op
    context manager (yielding ``None``) when none is.
    """
    stack = _STATE.stack
    if stack:
        return nullcontext(stack[-1])  # annotate; the owner emits
    if not SINK.enabled:
        return _NO_RECORD
    return QueryEvent(source, kind=kind)


# ----------------------------------------------------------------------
# Reading the log back (tix events, tests)
# ----------------------------------------------------------------------

def iter_events(lines: Iterable[str]) -> Iterator[Dict[str, object]]:
    """Parse JSONL audit-log lines into records, skipping blank lines.
    Raises :class:`ValueError` (with the line number) on a line that is
    not a JSON object."""
    for lineno, line in enumerate(lines, 1):
        text = line.strip()
        if not text:
            continue
        try:
            record = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"audit log line {lineno}: not valid JSON ({exc})"
            ) from exc
        if not isinstance(record, dict):
            raise ValueError(
                f"audit log line {lineno}: expected a JSON object"
            )
        yield record


def filter_events(records: Iterable[Dict[str, object]], *,
                  outcome: Optional[str] = None,
                  min_wall_ms: Optional[float] = None,
                  slow_only: bool = False,
                  ) -> Iterator[Dict[str, object]]:
    """Filter audit records the way ``tix events`` does: by outcome,
    by minimum wall time, and/or to force-logged slow queries only."""
    for record in records:
        if outcome is not None and record.get("outcome") != outcome:
            continue
        if min_wall_ms is not None:
            wall = record.get("wall_ms")
            if not isinstance(wall, (int, float)) or wall < min_wall_ms:
                continue
        if slow_only and not record.get("slow"):
            continue
        yield record
