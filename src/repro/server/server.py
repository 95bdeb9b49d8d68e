"""The threaded query-serving socket server.

:class:`QueryServer` listens on a TCP socket, speaks the
length-prefixed JSON-frame protocol (:mod:`repro.server.protocol`),
and runs every ``query`` request through
:func:`~repro.resilience.run.run_query_guarded` under a per-request
:class:`~repro.resilience.guard.QueryGuard` — the request's
``timeout_ms`` / ``max_rows`` budgets (clamped by server-side caps)
become the guard's budgets, so one slow or hungry client degrades or
fails alone.

Robustness properties:

- **admission control** — requests pass the
  :class:`~repro.server.admission.AdmissionController` before touching
  the engine: queue → typed ``OVERLOADED`` rejection → tightened
  budgets under sustained pressure (the response carries
  ``degraded: true``) → drain on shutdown;
- **pinned read visibility** — each admitted query executes inside
  :meth:`StoreGate.read`, pinned to the ``store.generation`` it
  entered at; :meth:`add_document` / :meth:`remove_document` take the
  gate's write side, which updates the inverted index and statistics
  by the changed document's share and builds anything dropped before
  readers re-enter, so no query ever observes a half-mutated corpus;
- **graceful shutdown** — :meth:`close` stops accepting, drains
  in-flight requests (every accepted request is *answered*), cancels
  stragglers through their guards' cooperative tokens, and only then
  closes sockets;
- **slow-client defense** — connections idle (or stalled mid-frame)
  longer than ``idle_timeout_s`` are closed, so a slowloris peer pins
  one thread for a bounded time only;
- **typed failures** — every exception raised while answering a
  query — engine errors, guard trips, admission refusals, and request
  fields that do not validate (a non-numeric or negative
  ``timeout_ms`` / ``max_rows`` is a ``BAD_REQUEST``) — leaves through
  one mapping to an :func:`~repro.server.protocol.error_response`
  envelope; a client never sees an unexplained disconnect for an
  in-protocol failure, and the connection answers its next frame;
- **one request record** — every ``query`` request opens one
  :class:`~repro.obs.events.QueryEvent` before admission, continuing
  the client's propagated trace context (or minting a root trace for
  old clients).  The pipeline notes outcome, truncation and cache
  verdicts on it; the server adds what it alone knows (queue wait,
  admission degradation, wire error code).  A ``server.request`` root
  span wraps queue wait, gate pin, and the guarded run (which
  contributes cache/compile/execute and per-operator spans on the same
  thread), the response echoes the ``trace_id``, and the finished
  record goes to the audit sink (when one is installed) and, with its
  span tree, to the :class:`~repro.obs.tracestore.TraceStore`, which
  retains it by the tail-based policy (slow / error / degraded /
  head-sampled) for the ``traces`` wire op.

The wire protocol is the one door to the server's telemetry: ``ping``
answers liveness, ``stats`` the admission counters plus the installed
collector's registry snapshot (histogram quantiles and trace-id
exemplars included) and uptime, ``traces`` the trace store.

One thread per connection (requests on a connection answered in
order); the accept loop runs on its own thread.  Guard installation is
thread-local (:mod:`repro.resilience.guard`), so concurrent requests
never cross-contaminate budgets.
"""

from __future__ import annotations

import socket
import threading
from contextlib import ExitStack
from time import monotonic, perf_counter
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Set

from repro import obs as _obs
from repro.errors import DocumentNotFoundError, ProtocolError
from repro.obs.events import QueryEvent
from repro.obs.tracestore import RetentionPolicy, TraceStore
from repro.resilience import faultinject as _faults
from repro.resilience.guard import CancellationToken, QueryGuard
from repro.resilience.run import GuardedResult, run_query_guarded
from repro.server.admission import AdmissionController, StoreGate
from repro.server.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    error_code,
    error_response,
    ok_response,
    parse_trace_context,
    read_frame,
    write_frame,
)

if TYPE_CHECKING:
    from repro.perf.querycache import QueryCache
    from repro.xmldb.document import Document
    from repro.xmldb.store import XMLStore

__all__ = ["QueryServer"]

#: Signature of a pluggable query runner: ``(source, guard) -> result``.
Runner = Callable[[str, QueryGuard], GuardedResult]

_KNOWN_OPS = ("query", "ping", "stats", "traces")


class QueryServer:
    """Serve queries over the wire protocol (module docstring).

    :param store: the corpus to serve (its lazy indexes are built on
        :meth:`start`, before the first request);
    :param host: bind address (default loopback);
    :param port: bind port (0 = ephemeral; read :attr:`port` after
        construction);
    :param max_inflight: concurrently executing requests;
    :param queue_timeout_ms: longest a request queues for a slot
        before the typed ``OVERLOADED`` rejection;
    :param default_timeout_ms: guard deadline applied when the request
        names none (``None`` = unbounded);
    :param max_timeout_ms: cap on the deadline a request may ask for;
    :param max_rows_cap: cap on the row budget a request may ask for;
    :param degrade_timeout_ms: deadline forced onto admitted requests
        under sustained overload (tightens a requested deadline by
        ``min``);
    :param degrade_max_rows: row budget forced under sustained
        overload;
    :param idle_timeout_s: close connections idle/stalled this long;
    :param max_frame_bytes: per-frame size ceiling;
    :param cache: optional shared
        :class:`~repro.perf.querycache.QueryCache`;
    :param runner: pluggable execution hook for tests/chaos — defaults
        to ``run_query_guarded`` with the cache (if any);
    :param trace_store: the distributed-trace registry (defaults to a
        fresh :class:`~repro.obs.tracestore.TraceStore` with the
        default tail-retention policy — pass one built with a custom
        :class:`~repro.obs.tracestore.RetentionPolicy` to tune the
        slow threshold / head-sample rate).
    """

    def __init__(self, store: "XMLStore", *,
                 host: str = "127.0.0.1", port: int = 0,
                 max_inflight: int = 8,
                 queue_timeout_ms: float = 1000.0,
                 default_timeout_ms: Optional[float] = None,
                 max_timeout_ms: Optional[float] = None,
                 max_rows_cap: Optional[int] = None,
                 degrade_timeout_ms: float = 1000.0,
                 degrade_max_rows: int = 100,
                 idle_timeout_s: float = 30.0,
                 max_frame_bytes: int = MAX_FRAME_BYTES,
                 cache: "Optional[QueryCache]" = None,
                 runner: Optional[Runner] = None,
                 trace_store: Optional[TraceStore] = None) -> None:
        self.store = store
        self.cache = cache
        self.trace_store = (
            trace_store if trace_store is not None
            else TraceStore(policy=RetentionPolicy())
        )
        self.default_timeout_ms = default_timeout_ms
        self.max_timeout_ms = max_timeout_ms
        self.max_rows_cap = max_rows_cap
        self.degrade_timeout_ms = degrade_timeout_ms
        self.degrade_max_rows = degrade_max_rows
        self.idle_timeout_s = idle_timeout_s
        self.max_frame_bytes = max_frame_bytes
        self._runner = runner
        self.admission = AdmissionController(
            max_inflight=max_inflight,
            queue_timeout_s=queue_timeout_ms / 1000.0,
        )
        self.gate = StoreGate(store)
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(
            socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(128)
        self._listener.settimeout(0.2)
        self._lock = threading.Lock()
        self._conns: Set[socket.socket] = set()
        self._threads: List[threading.Thread] = []
        self._tokens: Set[CancellationToken] = set()
        self._accept_thread: Optional[threading.Thread] = None
        self._closing = False
        self._closed = False
        self._started = monotonic()

    # -- addressing ------------------------------------------------------

    @property
    def host(self) -> str:
        return str(self._listener.getsockname()[0])

    @property
    def port(self) -> int:
        return int(self._listener.getsockname()[1])

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "QueryServer":
        """Build the store's lazy indexes, then accept connections on a
        background thread (idempotent)."""
        with self._lock:
            if self._accept_thread is not None:
                return self
            # Build once here so reader threads share finished
            # structures (StoreGate writers keep them current).
            self.store.index
            self.store.structure
            self.store.stats
            thread = self._accept_thread = threading.Thread(
                target=self._accept_loop, name="tix-query-accept",
                daemon=True,
            )
        # Started after the lock is released: ``Thread.start`` waits on
        # the new thread's Event, which is a lock of its own.
        thread.start()
        return self

    def close(self, drain_s: float = 5.0,
              cancel_grace_s: float = 1.0) -> bool:
        """Gracefully shut down: stop accepting, drain in-flight
        requests, cancel stragglers via their guard tokens, close
        sockets.  Returns ``True`` when every in-flight request was
        answered within the drain budget (idempotent)."""
        with self._lock:
            if self._closed:
                return True
            self._closing = True
        thread = self._accept_thread
        if thread is not None:
            thread.join(drain_s + 2.0)
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass
        drained = self.admission.drain(drain_s)
        if not drained:
            # Stragglers: trip their guards cooperatively, then give
            # them a short grace period to surface partial results.
            with self._lock:
                tokens = list(self._tokens)
            for token in tokens:
                token.cancel()
            drained = self.admission.drain(cancel_grace_s)
        with self._lock:
            conns = list(self._conns)
            threads = list(self._threads)
            self._closed = True
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
        for t in threads:
            t.join(1.0)
        return drained

    def __enter__(self) -> "QueryServer":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- corpus mutation (write side of the gate) ------------------------

    def add_document(self, name: str, source: str) -> "Document":
        """Parse and register a document under exclusive access; the
        indexes are brought up to date before queries resume."""
        with self.gate.write() as store:
            return store.load(name, source)

    def remove_document(self, name_or_id: object) -> "Document":
        """Unregister a document under exclusive access."""
        with self.gate.write() as store:
            return store.remove_document(name_or_id)

    # -- accept / connection loops ---------------------------------------

    def _accept_loop(self) -> None:
        rec = _obs.RECORDER
        while not self._closing:
            try:
                _faults.INJECTOR.fire("server.accept")
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                # Injected accept fault or a racing close: the server
                # keeps serving unless it is shutting down.
                if self._closing:
                    break
                continue
            if rec.enabled:
                rec.count("server.connections")
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,),
                name="tix-query-conn", daemon=True,
            )
            with self._lock:
                self._conns.add(conn)
                # Prune finished handlers, then track the new one (not
                # started yet, so it must not go through the filter).
                self._threads = [
                    t for t in self._threads if t.is_alive()
                ]
                self._threads.append(thread)
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        conn.settimeout(self.idle_timeout_s)
        try:
            while not self._closing:
                try:
                    req = read_frame(conn, self.max_frame_bytes)
                except ProtocolError as exc:
                    # Torn/oversized/non-JSON frame: answer typed, then
                    # close — framing is lost, resync is impossible.
                    self._send(conn, error_response(None, exc))
                    break
                except socket.timeout:
                    break  # idle or slowloris: bounded occupancy
                except OSError:
                    break
                if req is None:
                    break  # clean close at a frame boundary
                if not self._handle_frame(conn, req):
                    break
        finally:
            try:
                conn.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
            with self._lock:
                self._conns.discard(conn)

    # -- request handling ------------------------------------------------

    def _handle_frame(self, conn: socket.socket,
                      req: Dict[str, Any]) -> bool:
        """Answer one request frame.  Returns ``False`` when the
        connection must close (response could not be written)."""
        t0 = perf_counter()
        rid = req.get("id")
        raw_op = req.get("op")
        op = raw_op if raw_op in _KNOWN_OPS else "other"
        rec = _obs.RECORDER
        if rec.enabled:
            rec.count(f"server.requests.{op}")
        trace_id = ""
        version = req.get("v")
        if not isinstance(version, int) or not (
                1 <= version <= PROTOCOL_VERSION):
            sent = self._send(conn, error_response(
                rid,
                ProtocolError(f"unsupported protocol version {version!r}"),
                code="BAD_REQUEST",
            ))
        elif op == "ping":
            sent = self._send(conn, ok_response(
                rid, pong=True, generation=self.store.generation,
                draining=self.admission.draining,
            ))
        elif op == "stats":
            sent = self._send(conn, ok_response(rid, stats=self._stats()))
        elif op == "traces":
            sent = self._handle_traces(conn, rid, req)
        elif op == "query":
            sent, trace_id = self._handle_query(conn, rid, req)
        else:
            sent = self._send(conn, error_response(
                rid, ProtocolError(f"unknown op {raw_op!r}"),
                code="BAD_REQUEST",
            ))
        if rec.enabled:
            # The trace-id exemplar joins a latency outlier in the
            # histogram back to its (retained) trace.
            rec.observe("server.request_ms",
                        (perf_counter() - t0) * 1000.0,
                        exemplar=trace_id or None)
        return sent

    def _stats(self) -> Dict[str, Any]:
        """The ``stats`` payload: the admission counters at the top
        level, the installed collector's registry snapshot under
        ``metrics`` (``{}`` when none is installed) and ``uptime_s``."""
        rec = _obs.RECORDER
        return {
            **self.admission.snapshot(),
            "metrics": (rec.metrics.snapshot()
                        if isinstance(rec, _obs.Collector) else {}),
            "uptime_s": round(monotonic() - self._started, 3),
        }

    def _handle_traces(self, conn: socket.socket, rid: Any,
                       req: Dict[str, Any]) -> bool:
        """Answer a ``traces`` op: the store snapshot, or one trace by
        id (its record and full span tree)."""
        trace_id = req.get("trace_id")
        if trace_id is None:
            try:
                snapshot = self.trace_store.snapshot(
                    limit=req.get("limit", 50))
            except ValueError as exc:
                return self._send(conn, error_response(
                    rid, ProtocolError(str(exc)), code="BAD_REQUEST",
                ))
            return self._send(conn, ok_response(rid, traces=snapshot))
        trace = self.trace_store.get(str(trace_id))
        if trace is None:
            return self._send(conn, error_response(
                rid,
                DocumentNotFoundError(
                    f"no in-flight or retained trace {trace_id!r} "
                    f"(dropped, evicted, or never seen)"
                ),
            ))
        return self._send(conn, ok_response(rid, traces=trace.to_dict()))

    def _handle_query(self, conn: socket.socket, rid: Any,
                      req: Dict[str, Any]) -> "tuple[bool, str]":
        """Answer one ``query`` request under its own record: open it,
        answer, send once, complete.  Returns ``(sent, trace_id)``."""
        rec = _obs.RECORDER
        source = req.get("q")
        # Continue the client's propagated context, or mint a root
        # trace for old clients (parse_trace_context → None).
        record = self.trace_store.begin(
            parse_trace_context(req),
            source=source if isinstance(source, str) else "",
        )
        root = (
            rec.begin_span("server.request", trace_id=record.trace_id,
                           attempt=record.attempt)
            if rec.enabled else None
        )
        try:
            # ``held`` keeps the admission slot until the response is
            # written: a drain that completes implies every admitted
            # request was *answered*.
            with ExitStack() as held:
                # The record closes (and reaches the audit sink) before
                # the write: a client holding its answer can already
                # read the line about it.
                with record:
                    resp = self._answer(rid, req, record, held)
                return self._send(conn, resp), record.trace_id
        finally:
            if root is not None:
                rec.end_span(root)
                # The trace store owns the finished tree from here;
                # free the tracer's max_spans budget — a long-running
                # server must not exhaust it.
                tracer = getattr(rec, "tracer", None)
                if tracer is not None:
                    tracer.detach(root)
            self.trace_store.complete(record, root)

    def _answer(self, rid: Any, req: Dict[str, Any], record: QueryEvent,
                held: ExitStack) -> Dict[str, Any]:
        """The response frame for one ``query`` request.  The pipeline
        notes the result on ``record``; this adds what only the server
        knows.  Every failure — a malformed request, an admission
        refusal, a strict-mode guard trip, an engine error — leaves
        through the one mapping at the bottom: a typed envelope, the
        error noted on the record, never a dead connection thread."""
        rec = _obs.RECORDER
        fields: Dict[str, Any] = {"trace_id": record.trace_id}
        try:
            source = req.get("q")
            if not isinstance(source, str) or not source.strip():
                raise ProtocolError("query op requires a non-empty 'q'")
            with rec.span("queue.wait") as qspan:
                ticket = self.admission.admit(self.store.generation)
                if qspan is not None:
                    qspan.attrs["queued_ms"] = round(ticket.queued_ms, 3)
            held.callback(self.admission.release, ticket)
            record.queued_ms = ticket.queued_ms
            record.degraded = ticket.degraded
            token = CancellationToken()
            with self._lock:
                self._tokens.add(token)
            try:
                try:
                    timeout_ms, max_rows, degrade = self._budgets(req, ticket)
                    guard = QueryGuard(
                        timeout_ms=timeout_ms, max_rows=max_rows,
                        token=token, degrade=degrade,
                    )
                except (TypeError, ValueError) as exc:
                    raise ProtocolError(f"bad query budget: {exc}") from exc
                gspan = rec.begin_span("gate.pin") if rec.enabled else None
                with self.gate.read() as generation:
                    if gspan is not None:
                        gspan.attrs["generation"] = generation
                    rec.end_span(gspan)
                    fields["generation"] = generation
                    res = self._run(source, guard, record)
                    with_scores = bool(req.get("with_scores", False))
                    rows = [self._row(t, with_scores) for t in res.results]
                    return ok_response(
                        rid, rows=rows, n=len(rows),
                        truncated=res.truncated, reason=res.reason,
                        degraded=ticket.degraded,
                        queued_ms=round(ticket.queued_ms, 3), **fields,
                    )
            finally:
                with self._lock:
                    self._tokens.discard(token)
        except Exception as exc:
            record.note_error(type(exc).__name__, str(exc))
            record.error_code = (
                "BAD_REQUEST" if isinstance(exc, ProtocolError)
                else error_code(exc)
            )
            return error_response(rid, exc, code=record.error_code,
                                  **fields)

    def _budgets(self, req: Dict[str, Any], ticket: Any,
                 ) -> "tuple[Optional[float], Optional[int], bool]":
        """Resolve the request's guard budgets against the server caps
        and the admission ticket's degradation verdict."""
        timeout_ms = req.get("timeout_ms")
        timeout_ms = (
            float(timeout_ms) if timeout_ms is not None
            else self.default_timeout_ms
        )
        if self.max_timeout_ms is not None:
            timeout_ms = (
                self.max_timeout_ms if timeout_ms is None
                else min(timeout_ms, self.max_timeout_ms)
            )
        max_rows = req.get("max_rows")
        max_rows = int(max_rows) if max_rows is not None else None
        if self.max_rows_cap is not None:
            max_rows = (
                self.max_rows_cap if max_rows is None
                else min(max_rows, self.max_rows_cap)
            )
        degrade = bool(req.get("degrade", True))
        if ticket.degraded:
            # Sustained overload: tighten budgets and force partial
            # results so the server sheds load instead of dying.
            timeout_ms = (
                self.degrade_timeout_ms if timeout_ms is None
                else min(timeout_ms, self.degrade_timeout_ms)
            )
            max_rows = (
                self.degrade_max_rows if max_rows is None
                else min(max_rows, self.degrade_max_rows)
            )
            degrade = True
        return timeout_ms, max_rows, degrade

    def _run(self, source: str, guard: QueryGuard,
             record: QueryEvent) -> GuardedResult:
        if self._runner is None:
            return run_query_guarded(self.store, source, guard,
                                     cache=self.cache)
        # A pluggable runner stands in for the pipeline, so its result
        # is noted here the way the pipeline would have.
        res = self._runner(source, guard)
        record.note_result(res.n_results, res.truncated, res.reason)
        return res

    @staticmethod
    def _row(tree: object, with_scores: bool) -> Dict[str, Any]:
        score = getattr(tree, "score", None)
        to_xml = getattr(tree, "to_xml", None)
        xml = (
            to_xml(with_scores=with_scores) if callable(to_xml)
            else str(tree)
        )
        return {"score": score, "xml": xml}

    def _send(self, conn: socket.socket, resp: Dict[str, Any]) -> bool:
        rec = _obs.RECORDER
        if rec.enabled and not resp.get("ok"):
            code = resp.get("error", {}).get("code", "INTERNAL")
            rec.count(f"server.errors.{code}")
        try:
            write_frame(conn, resp, self.max_frame_bytes)
            return True
        except (ProtocolError, OSError):
            return False
