"""Wire-protocol client: one connection, reconnected under one jittered
retry policy.

:class:`Connection` is one socket speaking the frame protocol —
``call()`` writes a request, reads the matching response, and raises
the typed exception a received error envelope stands for
(:func:`~repro.server.protocol.raise_for_error`), so a remote
``TIMEOUT`` re-raises locally as
:class:`~repro.errors.QueryTimeoutError`.

:class:`PooledClient` owns one :class:`Connection`, opened on first
use.  A transport or framing failure (``OSError`` /
:class:`~repro.errors.ProtocolError`) drops it.  A transport failure
(connect refused or reset, peer closed mid-call, a server that evicted
the idle connection) is retried on a fresh connection by
:func:`repro.resilience.faultinject.retry` in jittered mode:
:data:`ATTEMPTS` calls in all, each backoff drawn between
:data:`RETRY_BASE_S` and three times the previous one and capped at
:data:`RETRY_MAX_S`, so a fleet of recovering clients does not
stampede the server in lock-step.  Queries are read-only, which is
what makes the retry safe.  Seedable (``seed=``) for the chaos suite.

The client is **single-threaded**: it holds no lock, so one thread
drives it at a time.  Concurrent callers each take their own client,
as :func:`repro.server.loadtest.run_loadtest` does per worker.

Typed server rejections (``OVERLOADED``, ``SHUTTING_DOWN``) are *not*
retried: the server asked the caller to back off, and the caller sees
the typed exception and decides.

**Distributed tracing**: every logical call mints a
:class:`~repro.obs.tracestore.TraceContext` and carries it on each
attempt with an ascending retry counter — a retry storm shows up
server-side as one trace id with attempts 0, 1, 2 … instead of
unrelated traces.  The server echoes the ``trace_id`` it served under
(:attr:`RemoteResult.trace_id`), which is the join key into its
retained-trace store (``tix trace --server``).
"""

from __future__ import annotations

import itertools
import random
import socket
from typing import Any, Dict, List, Optional

from repro import obs as _obs
from repro.errors import ProtocolError, TIXError
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

__all__ = ["RemoteRow", "RemoteResult", "Connection", "PooledClient"]

#: Calls per logical request: the first try plus two retries.
ATTEMPTS = 3

#: Decorrelated-jitter backoff envelope between attempts, in seconds.
RETRY_BASE_S = 0.01
RETRY_MAX_S = 0.25

#: TCP connect deadline, in seconds.
CONNECT_TIMEOUT_S = 5.0


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
                 call_timeout_s: Optional[float] = 30.0) -> None:
        self._sock = sock
        self._call_timeout_s = call_timeout_s
        self._ids = itertools.count(1)

    @classmethod
    def connect(cls, host: str, port: int, *,
                call_timeout_s: Optional[float] = 30.0) -> "Connection":
        sock = socket.create_connection(
            (host, port), timeout=CONNECT_TIMEOUT_S)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return cls(sock, call_timeout_s=call_timeout_s)

    def call(self, op: str, **fields: Any) -> Dict[str, Any]:
        """One request/response round trip.  Raises the typed exception
        for an error envelope; transport errors propagate as
        ``OSError``/:class:`~repro.errors.ProtocolError`."""
        rid = next(self._ids)
        self._sock.settimeout(self._call_timeout_s)
        write_frame(self._sock, request(op, rid, **fields),
                    MAX_FRAME_BYTES)
        resp = read_frame(self._sock, MAX_FRAME_BYTES)
        if resp is None:
            raise ConnectionError(
                "server closed the connection before answering"
            )
        got = resp.get("id")
        if got is not None and got != rid:
            raise ProtocolError(
                f"response id {got!r} does not match request id {rid}"
            )
        return raise_for_error(resp)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass


class PooledClient:
    """One reconnecting connection to one server; single-threaded.

    :param call_timeout_s: per-call response deadline;
    :param seed: seeds the jitter RNG (chaos-suite reproducibility);
    :param size: accepts only ``1``.  The frozen benchmark harness
        (``benchmarks/stack/workloads.py``) constructs
        ``PooledClient(host, port, size=1)``; the keyword stays for
        that call alone and goes when the client is renamed.
    """

    def __init__(self, host: str, port: int, *,
                 call_timeout_s: Optional[float] = 30.0,
                 seed: Optional[int] = None,
                 size: int = 1) -> None:
        if size != 1:
            raise ValueError(
                f"PooledClient holds one connection; size must be 1, "
                f"got {size!r}")
        self.host = host
        self.port = port
        self.call_timeout_s = call_timeout_s
        self._rng = random.Random(seed)
        self._conn: Optional[Connection] = None
        self._closed = False

    def _drop(self) -> None:
        conn, self._conn = self._conn, None
        if conn is not None:
            conn.close()

    def _call(self, op: str, **fields: Any) -> Dict[str, Any]:
        """One logical call, retried on a fresh connection after a
        transport failure; typed server errors are never retried.  Its
        one :class:`TraceContext` is re-sent on every retry with an
        incremented ``attempt``, so the server sees one causal story."""
        if self._closed:
            raise ConnectionError("client is closed")
        rec = _obs.RECORDER
        if rec.enabled:
            rec.count("client.requests")
        ctx = TraceContext.mint()

        def attempt() -> Dict[str, Any]:
            fields[TRACE_FIELD] = ctx.to_wire()
            ctx.attempt += 1  # next retry, if any, is attempt N+1
            if self._conn is None:
                self._conn = Connection.connect(
                    self.host, self.port,
                    call_timeout_s=self.call_timeout_s)
            try:
                return self._conn.call(op, **fields)
            except BaseException as exc:
                # A typed server answer leaves the connection in step;
                # a transport or framing failure (or an interrupt
                # mid-frame) leaves it unusable.
                if (not isinstance(exc, TIXError)
                        or isinstance(exc, ProtocolError)):
                    self._drop()
                raise

        try:
            result = retry(
                attempt,
                attempts=ATTEMPTS,
                base_delay=RETRY_BASE_S,
                retryable=(OSError,),
                jitter=True,
                max_delay=RETRY_MAX_S,
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
        """The server's admission counters (top-level keys), its
        collector's registry snapshot under ``metrics`` (``{}`` when
        none is installed) and ``uptime_s``."""
        resp = self._call("stats")
        stats = resp.get("stats")
        return stats if isinstance(stats, dict) else {}

    def traces(self, trace_id: Optional[str] = None, *,
               limit: int = 50) -> Dict[str, Any]:
        """The server's trace-store snapshot (no ``trace_id``), or one
        retained/in-flight trace with its full span tree (render it
        with :func:`repro.obs.trace.chrome_trace_events` /
        :func:`~repro.obs.trace.render_span_tree`).  Raises
        ``NOT_FOUND`` for an unknown id, and ``BAD_REQUEST`` for a
        ``limit`` that is not a positive int or on an old server
        without the ``traces`` op."""
        fields: Dict[str, Any] = {"limit": limit}
        if trace_id is not None:
            fields["trace_id"] = trace_id
        resp = self._call("traces", **fields)
        traces = resp.get("traces")
        return traces if isinstance(traces, dict) else {}

    def close(self) -> None:
        """Close the connection; a later call raises at once."""
        self._closed = True
        self._drop()

    def __enter__(self) -> "PooledClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
