"""Pooled wire-protocol client: health-checked checkout, jittered
retries, circuit breaker.

:class:`Connection` is one socket speaking the frame protocol —
``call()`` writes a request, reads the matching response, and raises
the typed exception a received error envelope stands for
(:func:`~repro.server.protocol.raise_for_error`), so a remote
``TIMEOUT`` re-raises locally as
:class:`~repro.errors.QueryTimeoutError`.

:class:`PooledClient` multiplexes callers over a bounded pool:

- **health-checked checkout** — a connection idle longer than
  ``health_check_idle_s`` is pinged before reuse; a stale one is
  discarded and replaced rather than handed to the caller;
- **retry with decorrelated jitter** — transient transport failures
  (connect refused/reset, peer closed mid-call) retry on a *fresh*
  connection with :func:`repro.resilience.faultinject.retry` in
  jittered mode, so a fleet of recovering clients does not stampede
  the server in lock-step.  Queries are read-only, which is what makes
  the retry safe.  Seedable (``seed=``) for the chaos suite;
- **circuit breaker** — ``breaker_threshold`` *consecutive* connect
  failures open the circuit: calls fail fast with
  :class:`~repro.errors.CircuitOpenError` (no connect attempt, no
  timeout wait) until ``breaker_cooldown_s`` elapses, then one
  half-open probe decides between closing it and re-opening.

Typed server rejections (``OVERLOADED``, ``SHUTTING_DOWN``) are *not*
retried here — the server explicitly asked the caller to back off, and
hammering it defeats admission control.  Callers see the typed
exception and decide.

**Distributed tracing**: every logical call mints a
:class:`~repro.obs.tracestore.TraceContext` (``trace=False`` turns it
off, making frames indistinguishable from an old client's) and carries
it on each attempt with an ascending retry counter — a retry storm
shows up server-side as one trace id with attempts 0, 1, 2 … instead
of unrelated traces.  The server echoes the ``trace_id`` it served
under (:attr:`RemoteResult.trace_id`), which is the join key into its
retained-trace store (``tix trace --server``).
"""

from __future__ import annotations

import itertools
import socket
import threading
from time import monotonic
from typing import Any, Dict, List, Optional

from repro import obs as _obs
from repro.errors import CircuitOpenError, ProtocolError, TIXError
from repro.obs.tracestore import TraceContext
from repro.resilience.faultinject import retry
from repro.server.protocol import (
    MAX_FRAME_BYTES,
    TRACE_FIELD,
    raise_for_error,
    read_frame,
    request,
    write_frame,
)

__all__ = [
    "RemoteRow", "RemoteResult", "Connection", "CircuitBreaker",
    "PooledClient",
]

#: Transport-level failures worth retrying on a fresh connection.
_TRANSIENT = (ConnectionError, socket.timeout, OSError)


class RemoteRow:
    """One result row off the wire: the score and the serialized XML."""

    __slots__ = ("score", "xml")

    def __init__(self, score: Optional[float], xml: str) -> None:
        self.score = score
        self.xml = xml

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RemoteRow(score={self.score!r}, xml={self.xml[:40]!r})"


class RemoteResult:
    """A successful ``query`` response (possibly truncated/degraded)."""

    __slots__ = (
        "rows", "truncated", "reason", "degraded", "generation",
        "queued_ms", "trace_id",
    )

    def __init__(self, rows: List[RemoteRow], truncated: bool,
                 reason: str, degraded: bool, generation: int,
                 queued_ms: float, trace_id: str = "") -> None:
        self.rows = rows
        self.truncated = truncated
        self.reason = reason
        self.degraded = degraded
        self.generation = generation
        self.queued_ms = queued_ms
        #: The server-side trace id this result was served under ("" on
        #: an old server that does not echo one).
        self.trace_id = trace_id

    @property
    def n_results(self) -> int:
        return len(self.rows)


class Connection:
    """One client socket speaking the frame protocol."""

    def __init__(self, sock: socket.socket,
                 call_timeout_s: Optional[float] = 30.0,
                 max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self._sock = sock
        self._call_timeout_s = call_timeout_s
        self._max_frame_bytes = max_frame_bytes
        self._ids = itertools.count(1)
        #: monotonic timestamp of the last completed call (health check)
        self.last_used = monotonic()

    @classmethod
    def connect(cls, host: str, port: int, *,
                connect_timeout_s: float = 5.0,
                call_timeout_s: Optional[float] = 30.0,
                max_frame_bytes: int = MAX_FRAME_BYTES) -> "Connection":
        sock = socket.create_connection(
            (host, port), timeout=connect_timeout_s)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return cls(sock, call_timeout_s=call_timeout_s,
                   max_frame_bytes=max_frame_bytes)

    def call(self, op: str, *, timeout_s: Optional[float] = None,
             **fields: Any) -> Dict[str, Any]:
        """One request/response round trip.  Raises the typed exception
        for an error envelope; transport errors propagate as
        ``OSError``/:class:`~repro.errors.ProtocolError`."""
        rid = next(self._ids)
        self._sock.settimeout(
            timeout_s if timeout_s is not None else self._call_timeout_s)
        write_frame(self._sock, request(op, rid, **fields),
                    self._max_frame_bytes)
        resp = read_frame(self._sock, self._max_frame_bytes)
        if resp is None:
            raise ConnectionError(
                "server closed the connection before answering"
            )
        got = resp.get("id")
        if got is not None and got != rid:
            raise ProtocolError(
                f"response id {got!r} does not match request id {rid}"
            )
        self.last_used = monotonic()
        return raise_for_error(resp)

    def ping(self, timeout_s: Optional[float] = None) -> bool:
        """Liveness round trip; ``False`` on any failure."""
        try:
            resp = self.call("ping", timeout_s=timeout_s)
        except (TIXError, OSError):
            return False
        return bool(resp.get("pong"))

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass


class CircuitBreaker:
    """Open after ``threshold`` consecutive failures; half-open one
    probe after ``cooldown_s``; close again on success."""

    def __init__(self, threshold: int = 5,
                 cooldown_s: float = 1.0) -> None:
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self._lock = threading.Lock()
        self._failures = 0
        self._opened_at: Optional[float] = None
        self._probing = False
        self.opens = 0

    @property
    def state(self) -> str:
        with self._lock:
            if self._opened_at is None:
                return "closed"
            if monotonic() - self._opened_at >= self.cooldown_s:
                return "half-open"
            return "open"

    def allow(self) -> bool:
        """May a connect attempt proceed right now?  In half-open
        state exactly one probe is let through per cooldown lapse."""
        with self._lock:
            if self._opened_at is None:
                return True
            if monotonic() - self._opened_at < self.cooldown_s:
                return False
            if self._probing:
                return False
            self._probing = True
            return True

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._opened_at = None
            self._probing = False

    def record_failure(self) -> None:
        rec = _obs.RECORDER
        with self._lock:
            self._failures += 1
            self._probing = False
            if self._failures >= self.threshold:
                if self._opened_at is None:
                    self.opens += 1
                    if rec.enabled:
                        rec.count("client.breaker_opens")
                self._opened_at = monotonic()


class PooledClient:
    """Bounded connection pool over one server (module docstring).

    :param size: pooled connections kept idle (checkout never blocks —
        beyond ``size`` concurrent callers, extra connections are
        opened and closed instead of pooled);
    :param connect_timeout_s: TCP connect deadline;
    :param call_timeout_s: per-call response deadline;
    :param retries: total attempts for a call hitting transient
        transport failures;
    :param retry_base_s / retry_max_s: decorrelated-jitter backoff
        envelope between attempts;
    :param breaker_threshold / breaker_cooldown_s: circuit breaker on
        consecutive *connect* failures;
    :param health_check_idle_s: ping a pooled connection idle longer
        than this before reuse;
    :param trace: mint and propagate a trace context per logical call
        (off → frames look exactly like an old client's);
    :param seed: seeds the jitter RNG (chaos-suite reproducibility).
    """

    def __init__(self, host: str, port: int, *, size: int = 4,
                 connect_timeout_s: float = 5.0,
                 call_timeout_s: Optional[float] = 30.0,
                 retries: int = 3,
                 retry_base_s: float = 0.01,
                 retry_max_s: float = 0.25,
                 breaker_threshold: int = 5,
                 breaker_cooldown_s: float = 1.0,
                 health_check_idle_s: float = 30.0,
                 max_frame_bytes: int = MAX_FRAME_BYTES,
                 trace: bool = True,
                 seed: Optional[int] = None) -> None:
        import random

        self.trace = trace
        self.host = host
        self.port = port
        self.size = size
        self.connect_timeout_s = connect_timeout_s
        self.call_timeout_s = call_timeout_s
        self.retries = retries
        self.retry_base_s = retry_base_s
        self.retry_max_s = retry_max_s
        self.health_check_idle_s = health_check_idle_s
        self.max_frame_bytes = max_frame_bytes
        self.breaker = CircuitBreaker(
            threshold=breaker_threshold, cooldown_s=breaker_cooldown_s)
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._idle: List[Connection] = []
        self._closed = False

    # -- pool mechanics --------------------------------------------------

    def _connect(self) -> Connection:
        """Open a fresh connection through the circuit breaker."""
        if not self.breaker.allow():
            raise CircuitOpenError(
                f"circuit open for {self.host}:{self.port} after "
                f"{self.breaker.threshold} consecutive connect failures"
            )
        try:
            conn = Connection.connect(
                self.host, self.port,
                connect_timeout_s=self.connect_timeout_s,
                call_timeout_s=self.call_timeout_s,
                max_frame_bytes=self.max_frame_bytes,
            )
        except BaseException:
            # *Every* failed attempt — OSError or not — must hand the
            # half-open probe token back via record_failure, or
            # ``_probing`` stays True forever and the breaker wedges
            # open with no thread allowed to probe again.
            self.breaker.record_failure()
            raise
        self.breaker.record_success()
        return conn

    def _checkout(self) -> Connection:
        """A healthy connection: pooled (pinged when idle too long) or
        freshly opened."""
        while True:
            with self._lock:
                if self._closed:
                    raise ConnectionError("client pool is closed")
                conn = self._idle.pop() if self._idle else None
            if conn is None:
                return self._connect()
            if monotonic() - conn.last_used <= self.health_check_idle_s:
                return conn
            if conn.ping(timeout_s=self.connect_timeout_s):
                return conn
            conn.close()  # stale: discard and keep looking

    def _checkin(self, conn: Connection) -> None:
        with self._lock:
            if not self._closed and len(self._idle) < self.size:
                self._idle.append(conn)
                return
        conn.close()

    # -- calls -----------------------------------------------------------

    def _call(self, op: str, **fields: Any) -> Dict[str, Any]:
        """One logical call, retried across fresh connections on
        transient transport failure (jittered, seedable backoff).
        Typed server errors (incl. OVERLOADED) are never retried.

        With tracing on, one :class:`TraceContext` is minted per
        *logical* call and re-sent on every retry with an incremented
        ``attempt`` counter, so the server sees the retries as one
        causal story."""
        rec = _obs.RECORDER
        if rec.enabled:
            rec.count("client.requests")
        ctx = TraceContext.mint() if self.trace else None

        def attempt() -> Dict[str, Any]:
            if ctx is not None:
                fields[TRACE_FIELD] = ctx.to_wire()
                ctx.attempt += 1  # next retry, if any, is attempt N+1
            conn = self._checkout()
            try:
                resp = conn.call(op, **fields)
            except (ProtocolError, OSError):
                # Transport/framing failure: this socket is unusable.
                conn.close()
                raise
            except TIXError:
                # Typed server error: the connection itself is fine.
                self._checkin(conn)
                raise
            self._checkin(conn)
            return resp

        try:
            result = retry(
                attempt,
                attempts=self.retries,
                base_delay=self.retry_base_s,
                retryable=_TRANSIENT,
                non_retryable=(CircuitOpenError,),
                jitter=True,
                max_delay=self.retry_max_s,
                rng=self._rng,
            )
        except (TIXError, OSError):
            if rec.enabled:
                rec.count("client.errors")
            raise
        assert isinstance(result, dict)
        return result

    def query(self, source: str, *,
              timeout_ms: Optional[float] = None,
              max_rows: Optional[int] = None,
              degrade: bool = True,
              with_scores: bool = False) -> RemoteResult:
        """Run ``source`` on the server under its admission control and
        per-request guard budgets."""
        fields: Dict[str, Any] = {
            "q": source, "degrade": degrade, "with_scores": with_scores,
        }
        if timeout_ms is not None:
            fields["timeout_ms"] = timeout_ms
        if max_rows is not None:
            fields["max_rows"] = max_rows
        resp = self._call("query", **fields)
        rows = [
            RemoteRow(r.get("score"), str(r.get("xml", "")))
            for r in resp.get("rows", ())
        ]
        return RemoteResult(
            rows=rows,
            truncated=bool(resp.get("truncated")),
            reason=str(resp.get("reason", "")),
            degraded=bool(resp.get("degraded")),
            generation=int(resp.get("generation", 0)),
            queued_ms=float(resp.get("queued_ms", 0.0)),
            trace_id=str(resp.get("trace_id", "")),
        )

    def ping(self) -> bool:
        try:
            return bool(self._call("ping").get("pong"))
        except (TIXError, OSError):
            return False

    def stats(self) -> Dict[str, Any]:
        """The server's admission/inflight snapshot."""
        resp = self._call("stats")
        stats = resp.get("stats")
        return stats if isinstance(stats, dict) else {}

    def traces(self, trace_id: Optional[str] = None, *,
               limit: int = 50) -> Dict[str, Any]:
        """The server's trace-store snapshot (no ``trace_id``), or one
        retained/in-flight trace with its full span tree (render it
        with :func:`repro.obs.trace.chrome_trace_events` /
        :func:`~repro.obs.trace.render_span_tree`).  Raises
        ``NOT_FOUND`` for an unknown id and ``BAD_REQUEST`` on an old
        server without the ``traces`` op."""
        fields: Dict[str, Any] = {"limit": limit}
        if trace_id is not None:
            fields["trace_id"] = trace_id
        resp = self._call("traces", **fields)
        traces = resp.get("traces")
        return traces if isinstance(traces, dict) else {}

    def close(self) -> None:
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def __enter__(self) -> "PooledClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
