"""A stdlib-only HTTP exposition surface for the telemetry pipeline.

:class:`ObsServer` wraps :class:`http.server.ThreadingHTTPServer`
around three read-only endpoints:

- ``/metrics`` — the registry in the OpenMetrics text format
  (:func:`repro.obs.export.render_openmetrics`), scrapeable by
  Prometheus or validated by :func:`repro.obs.export.parse_openmetrics`;
- ``/healthz`` — a plain ``ok`` liveness probe;
- ``/varz`` — a JSON dump: the registry snapshot, the snapshotter's
  ring stats and headline windowed rates (when one is attached), and
  process uptime;
- ``/traces`` — the attached trace store's in-flight + retained
  summaries (``tix top`` polls this), ``/traces?id=<trace_id>`` one
  trace's record and full span tree (``tix trace --chrome-out``
  converts it client-side).  404 when no trace store is attached or
  the id is unknown.

The server observes itself: every request increments a
``serve.requests.<endpoint>`` counter and lands its handling latency in
``serve.request_ms`` — through the *global* recorder, so when `tix
serve` installs a collector the scrape traffic shows up in the next
scrape.  Handlers never mutate engine state, so serving concurrent
scrapes while workers run queries needs no coordination beyond what
the metrics primitives already provide.

Bind to port 0 for an ephemeral port (tests); :attr:`ObsServer.port`
reports the bound port either way.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional
from urllib.parse import parse_qs

from repro import obs as _obs
from repro.obs.export import CONTENT_TYPE, render_openmetrics
from repro.obs.metrics import MetricsRegistry
from repro.obs.snapshot import Snapshotter
from repro.obs.tracestore import TraceStore

__all__ = ["ObsServer"]

#: Headline windows rendered in ``/varz`` (label -> seconds).
_VARZ_WINDOWS: Dict[str, float] = {"1m": 60.0, "5m": 300.0}


class _Handler(BaseHTTPRequestHandler):
    """Routes one request; state lives on the server object."""

    server: "ObsServer"  # type: ignore[assignment]

    # Bound how long a stalled client can pin a handler thread: the
    # socket read times out and the handler exits instead of blocking
    # in recv forever.
    timeout = 30.0

    # Scrapers poll; the default per-request stderr line is noise.
    def log_message(self, format: str, *args: object) -> None:
        pass

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        t0 = time.perf_counter()
        raw_path, _, query = self.path.partition("?")
        path = raw_path.rstrip("/") or "/"
        if path == "/metrics":
            endpoint = "metrics"
            body = render_openmetrics(self.server.registry)
            self._reply(200, CONTENT_TYPE, body)
        elif path == "/healthz":
            endpoint = "healthz"
            self._reply(200, "text/plain; charset=utf-8", "ok\n")
        elif path == "/varz":
            endpoint = "varz"
            body = json.dumps(self.server.varz(), indent=2,
                              sort_keys=True) + "\n"
            self._reply(200, "application/json; charset=utf-8", body)
        elif path == "/traces":
            endpoint = "traces"
            self._reply_traces(parse_qs(query))
        else:
            endpoint = "other"
            self._reply(404, "text/plain; charset=utf-8",
                        f"no such endpoint: {path}\n")
        rec = _obs.RECORDER
        if rec.enabled:
            rec.count(f"serve.requests.{endpoint}")
            rec.observe("serve.request_ms",
                        (time.perf_counter() - t0) * 1000.0)

    def _reply_traces(self, params: Dict[str, List[str]]) -> None:
        """``/traces`` routing: store snapshot, or one trace by
        ``?id=``."""
        store = self.server.trace_store
        if store is None:
            self._reply(404, "text/plain; charset=utf-8",
                        "no trace store attached\n")
            return
        trace_ids = params.get("id")
        if not trace_ids:
            try:
                limit = int(params.get("limit", ["50"])[0])
            except ValueError:
                limit = 50
            payload: Dict[str, object] = store.snapshot(limit=limit)
        else:
            trace = store.get(trace_ids[0])
            if trace is None:
                self._reply(404, "text/plain; charset=utf-8",
                            f"no such trace: {trace_ids[0]}\n")
                return
            payload = trace.to_dict()
        body = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        self._reply(200, "application/json; charset=utf-8", body)

    def _reply(self, status: int, content_type: str, body: str) -> None:
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)


class ObsServer(ThreadingHTTPServer):
    """The telemetry HTTP server (see module docstring).

    :param registry: the registry ``/metrics`` and ``/varz`` render;
    :param snapshotter: optional ring sampler — attaching one adds
        windowed rates to ``/varz`` (it is *not* started or stopped by
        the server; the owner controls its lifecycle);
    :param trace_store: optional distributed-trace registry — attaching
        one enables the ``/traces`` endpoint (typically the query
        server's store, shared);
    :param host: bind address (default loopback);
    :param port: bind port (0 = ephemeral).

    Use :meth:`start` / :meth:`stop` (background thread) or the
    inherited ``serve_forever`` to drive it inline.
    """

    daemon_threads = True
    # ThreadingMixIn's own close path joins handler threads with NO
    # timeout, so one stalled scrape (slowloris) would hang shutdown
    # forever.  We track handler threads ourselves and drain them with
    # a *bounded* join in :meth:`stop` instead.
    block_on_close = False

    def __init__(self, registry: MetricsRegistry, *,
                 snapshotter: Optional[Snapshotter] = None,
                 trace_store: Optional[TraceStore] = None,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        super().__init__((host, port), _Handler)
        self.registry = registry
        self.snapshotter = snapshotter
        self.trace_store = trace_store
        self._started = time.time()
        self._thread: Optional[threading.Thread] = None
        self._handler_lock = threading.Lock()
        self._handlers: List[threading.Thread] = []

    def process_request(  # type: ignore[override]
            self, request: object, client_address: object) -> None:
        """One thread per request (as ThreadingMixIn), but tracked, so
        :meth:`stop` can drain in-flight scrapes with a bounded join
        before the socket teardown."""
        thread = threading.Thread(
            target=self.process_request_thread,
            args=(request, client_address),
            daemon=self.daemon_threads,
        )
        with self._handler_lock:
            self._handlers = [t for t in self._handlers if t.is_alive()]
            self._handlers.append(thread)
        thread.start()

    @property
    def port(self) -> int:
        return int(self.server_address[1])

    @property
    def url(self) -> str:
        host = self.server_address[0]
        return f"http://{host}:{self.port}"

    def varz(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "uptime_s": round(time.time() - self._started, 3),
            "metrics": self.registry.snapshot(),
        }
        snap = self.snapshotter
        if snap is not None:
            windows: Dict[str, object] = {}
            for label, seconds in _VARZ_WINDOWS.items():
                windows[label] = {
                    "qps": snap.rate("batch.queries", seconds),
                    "result_cache_hit_rate": snap.hit_rate(
                        "cache.result.hits", "cache.result.misses",
                        seconds),
                    "query_ms_p50": snap.quantile_over(
                        "batch.query_ms", 0.50, seconds),
                    "query_ms_p99": snap.quantile_over(
                        "batch.query_ms", 0.99, seconds),
                }
            out["snapshot"] = {
                "stats": snap.stats(), "windows": windows,
            }
        return out

    # -- background lifecycle -------------------------------------------

    def start(self) -> None:
        """Serve on a background daemon thread (idempotent)."""
        with self._handler_lock:
            if self._thread is not None and self._thread.is_alive():
                return
            self._thread = threading.Thread(
                target=self.serve_forever, name="tix-serve",
                daemon=True
            )
            self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        """Shut the server down and release the socket (idempotent).

        In-flight scrapes are *drained* first: handler threads are
        joined against a shared ``timeout`` deadline, so a completing
        ``/metrics`` response is never cut off by the teardown — and a
        stalled client delays shutdown by at most ``timeout``."""
        deadline = time.monotonic() + timeout
        self.shutdown()
        with self._handler_lock:
            thread = self._thread
            self._thread = None
        if thread is not None:
            thread.join(timeout)
        with self._handler_lock:
            handlers = list(self._handlers)
        for t in handlers:
            t.join(max(0.0, deadline - time.monotonic()))
        with self._handler_lock:
            self._handlers = [t for t in self._handlers if t.is_alive()]
        self.server_close()

    def __enter__(self) -> "ObsServer":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()
