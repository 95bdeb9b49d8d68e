"""Request-scoped distributed traces with tail-based retention.

The PR 1 tracer (:mod:`repro.obs.trace`) collects spans inside one
process; this module makes those spans *request-scoped* and keeps the
ones that matter:

- :class:`TraceContext` is the propagated identity: a ``trace_id``
  minted by the first hop (normally the pooled client), the parent
  span id, and a per-retry ``attempt`` counter.  It rides in wire
  frames as an optional ``"trace"`` field — an old peer simply ignores
  it, and a frame without it makes the server mint a root trace
  locally, so mixed client/server versions interoperate.
- A trace is the request's one record
  (:class:`~repro.obs.events.QueryEvent` — the propagated context,
  timing, the outcome the pipeline stamped, what the server alone
  knows) plus the request's span tree — the same
  :class:`~repro.obs.trace.Span` objects the engine's operators
  produce, so a retained trace nests queue wait → guard execution →
  per-operator spans with zero extra bookkeeping.  This module defines
  no record class of its own: the audit line and the ``traces`` row
  are two projections of that one record.
- :class:`TraceStore` is a bounded, thread-safe registry:
  every trace is visible while in flight (the ``tix top`` live view),
  and completed traces are **promoted by the tail**, not the head —
  :class:`RetentionPolicy` always keeps slow, errored, and
  degraded/truncated requests, while fast successes are kept at the
  head-sample rate (drawn at trace *begin*, so the decision is
  latency-independent).  The retained ring evicts oldest-first under
  pressure, counting ``trace.dropped`` rather than corrupting
  retained trees.

Metric emission happens *outside* the store's lock: the store computes
what to emit under its lock and flushes after release.  The lock-rank
rule (``docs/static-analysis.md``, "Lock ranks") would allow it under
the lock, since the metrics locks are leaf locks, but emitting after
release keeps the critical section short.
"""

from __future__ import annotations

import random
import threading
import time
import uuid
from collections import OrderedDict
from typing import Any, Dict, List, Optional

from repro import obs as _obs
from repro.obs.events import QueryEvent
from repro.obs.trace import Span

__all__ = [
    "TraceContext", "RetentionPolicy", "TraceStore",
    "new_trace_id", "new_span_id",
]


def new_trace_id() -> str:
    """A fresh 16-hex-digit trace id."""
    return uuid.uuid4().hex[:16]


def new_span_id() -> str:
    """A fresh 16-hex-digit span id (client-side send spans)."""
    return uuid.uuid4().hex[:16]


class TraceContext:
    """The propagated trace identity carried across the wire.

    ``attempt`` counts client retries of the same logical call (0 for
    the first attempt), so a retry storm shows up as one trace id with
    ascending attempts instead of unrelated traces.
    """

    __slots__ = ("trace_id", "parent_span_id", "attempt")

    def __init__(self, trace_id: str, parent_span_id: str = "",
                 attempt: int = 0) -> None:
        self.trace_id = trace_id
        self.parent_span_id = parent_span_id
        self.attempt = attempt

    @classmethod
    def mint(cls) -> "TraceContext":
        """A fresh root context (what the pooled client creates per
        logical call)."""
        return cls(new_trace_id(), parent_span_id=new_span_id())

    def to_wire(self) -> Dict[str, Any]:
        """The frame field value (``{"id": …, "span": …, "attempt": …}``)."""
        return {
            "id": self.trace_id,
            "span": self.parent_span_id,
            "attempt": self.attempt,
        }

    @classmethod
    def from_wire(cls, obj: Any) -> Optional["TraceContext"]:
        """Parse a frame's ``"trace"`` field.  Tolerant by contract:
        an absent, malformed, or partial value returns ``None`` (the
        server then mints a root trace locally) — never raises, so an
        old or buggy client cannot poison the serving path."""
        if not isinstance(obj, dict):
            return None
        trace_id = obj.get("id")
        if not isinstance(trace_id, str) or not trace_id:
            return None
        span = obj.get("span")
        attempt = obj.get("attempt")
        return cls(
            trace_id=trace_id,
            parent_span_id=span if isinstance(span, str) else "",
            attempt=attempt if isinstance(attempt, int)
            and attempt >= 0 else 0,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TraceContext({self.trace_id!r}, "
                f"parent={self.parent_span_id!r}, "
                f"attempt={self.attempt})")


class RetentionPolicy:
    """Tail-based promotion verdicts for completed traces.

    Forced retention (the tail): typed errors, degraded or truncated
    results, and requests slower than ``slow_ms``.  Everything else —
    the fast successes — follows ``sample_rate``, drawn when the trace
    *begins* so the verdict cannot correlate with the latency it is
    meant to be independent of.  The draw sequence is deterministic
    under a fixed ``seed``.

    Not thread-safe by itself: the trace store calls it under its own
    lock.
    """

    def __init__(self, *, slow_ms: Optional[float] = 250.0,
                 sample_rate: float = 0.0,
                 retain_errors: bool = True,
                 retain_degraded: bool = True,
                 seed: Optional[int] = None) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(
                f"sample_rate {sample_rate} outside [0, 1]"
            )
        self.slow_ms = slow_ms
        self.sample_rate = sample_rate
        self.retain_errors = retain_errors
        self.retain_degraded = retain_degraded
        self._rng = random.Random(seed)

    def head_sample(self) -> bool:
        """One head-sampling draw (made at trace begin)."""
        if self.sample_rate >= 1.0:
            return True
        if self.sample_rate <= 0.0:
            return False
        return self._rng.random() < self.sample_rate

    def verdict(self, trace: QueryEvent) -> str:
        """The retention reason for a completed trace ("" = drop).
        Forced reasons win over the head-sample draw, so the tail is
        never sampled away."""
        if self.retain_errors and trace.outcome == "error":
            return "error"
        if self.retain_degraded and (trace.degraded or trace.truncated):
            return "degraded"
        if self.slow_ms is not None and trace.wall_ms >= self.slow_ms:
            return "slow"
        if trace.head_sampled:
            return "sampled"
        return ""


class TraceStore:
    """Bounded, thread-safe registry of in-flight and retained traces.

    ``capacity`` bounds the retained ring: promotion beyond it evicts
    the oldest retained trace (``trace.dropped``).  In-flight traces
    are never evicted — they are bounded by the server's admission
    ladder, not by this store.
    """

    def __init__(self, capacity: int = 256,
                 policy: Optional[RetentionPolicy] = None) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.policy = policy if policy is not None else RetentionPolicy()
        self._lock = threading.Lock()
        self._inflight: "OrderedDict[str, QueryEvent]" = OrderedDict()
        self._retained: "OrderedDict[str, QueryEvent]" = OrderedDict()
        # Lifetime tallies (mirrored as trace.* metrics when collecting).
        self.started = 0
        self.completed = 0
        self.retained_count = 0
        self.dropped = 0

    # -- lifecycle -------------------------------------------------------

    def begin(self, context: Optional[TraceContext] = None, *,
              op: str = "query", source: str = "") -> QueryEvent:
        """Open and register the record of a new in-flight request.
        With a propagated ``context`` the trace continues the client's
        id; without one (an old client, or a locally issued query) a
        root trace is minted here."""
        if context is None:
            context = TraceContext(new_trace_id())
        trace = QueryEvent(source, kind=op, context=context)
        with self._lock:
            trace.head_sampled = self.policy.head_sample()
            # A colliding id (a client retrying with the same trace id
            # while the first attempt is still in flight) keys on
            # id#attempt so neither tree is lost.
            key = trace.trace_id
            if key in self._inflight:
                key = f"{trace.trace_id}#{trace.attempt}"
                while key in self._inflight:
                    key += "+"
            trace.store_key = key
            self._inflight[key] = trace
            self.started += 1
            inflight = len(self._inflight)
        rec = _obs.RECORDER
        if rec.enabled:
            rec.count("trace.started")
            rec.set_gauge("trace.inflight", inflight)
        return trace

    def complete(self, trace: QueryEvent,
                 root: Optional[Span] = None) -> str:
        """Take a finished record and its root span, apply the
        retention policy, and return the retention reason ("" when the
        trace was dropped)."""
        if trace.end_ns is None:  # never opened as an observation
            trace.end_ns = time.perf_counter_ns()
        trace.root = root
        evicted = 0
        with self._lock:
            self._inflight.pop(trace.store_key, None)
            self.completed += 1
            reason = self.policy.verdict(trace)
            trace.retained_for = reason
            if reason:
                self._retained[self._retained_key(trace)] = trace
                self.retained_count += 1
                while len(self._retained) > self.capacity:
                    self._retained.popitem(last=False)
                    evicted += 1
                self.dropped += evicted
            inflight = len(self._inflight)
        rec = _obs.RECORDER
        if rec.enabled:
            rec.count("trace.completed")
            rec.set_gauge("trace.inflight", inflight)
            if reason:
                rec.count(f"trace.retained.{reason}")
            if evicted:
                rec.count("trace.dropped", evicted)
        return reason

    def _retained_key(self, trace: QueryEvent) -> str:
        key = trace.store_key
        while key in self._retained:
            key += "+"
        return key

    # -- lookup ----------------------------------------------------------

    def get(self, trace_id: str) -> Optional[QueryEvent]:
        """The trace registered under ``trace_id`` (in flight or
        retained; retained wins for a completed id)."""
        with self._lock:
            trace = self._retained.get(trace_id)
            if trace is None:
                trace = self._inflight.get(trace_id)
            return trace

    def inflight(self) -> List[QueryEvent]:
        with self._lock:
            return list(self._inflight.values())

    def retained(self) -> List[QueryEvent]:
        """Retained traces, oldest first."""
        with self._lock:
            return list(self._retained.values())

    def snapshot(self, limit: int = 50) -> Dict[str, Any]:
        """The ``/traces`` payload: counters plus in-flight and
        retained summaries (retained newest-first, capped at
        ``limit``).  ``limit`` must be a positive int: it arrives from
        the wire and from URLs, and 0 or a negative value would slice
        to "everything" or "all but the newest"."""
        if isinstance(limit, bool) or not isinstance(limit, int) \
                or limit <= 0:
            raise ValueError(
                f"trace limit must be a positive integer, got {limit!r}"
            )
        with self._lock:
            inflight = list(self._inflight.values())
            retained = list(self._retained.values())
            counters = self._stats_locked()
        return {
            "stats": counters,
            "inflight": [t.summary() for t in inflight],
            "retained": [
                t.summary() for t in reversed(retained[-limit:])
            ],
        }

    def _stats_locked(self) -> Dict[str, Any]:
        return {
            "capacity": self.capacity,
            "started": self.started,
            "completed": self.completed,
            "inflight": len(self._inflight),
            "retained": len(self._retained),
            "retained_total": self.retained_count,
            "dropped": self.dropped,
        }

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return self._stats_locked()
