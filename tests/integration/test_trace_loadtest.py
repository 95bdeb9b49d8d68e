"""Satellite loadtest coverage for distributed tracing: an 8-client
fleet against a live server yields exactly one trace tree per request
with correct span nesting, trace-store eviction under pressure counts
``trace.dropped`` without corrupting retained trees, and ``tix top``
renders the served telemetry from the query port."""

import time

import pytest

from repro import cli, obs
from repro.exampledata import example_store
from repro.obs.tracestore import RetentionPolicy, TraceStore
from repro.server import PooledClient, QueryServer, run_loadtest

QUERIES = [
    'For $x in document("articles.xml")/article/descendant-or-self::* '
    'Score $x using ScoreFooExact($x, {"search"}, {"engine"}) '
    'Return $x Sortby(score)',
    'For $x in document("articles.xml")//section '
    'Score $x using ScoreFoo($x, {"search engine"}, {"internet"}) '
    'Return $x Sortby(score)',
]

TOTAL = 32
CLIENTS = 8


def _quiesce(store, n, timeout_s=5.0):
    """The response hits the wire before the server's ``finally``
    completes the trace; wait for the store to catch up."""
    deadline = time.monotonic() + timeout_s
    while (store.stats()["completed"] < n
           and time.monotonic() < deadline):
        time.sleep(0.01)


@pytest.fixture()
def traced_server():
    col = obs.Collector()
    obs.install(col)
    srv = QueryServer(
        example_store(), port=0, max_inflight=4,
        trace_store=TraceStore(
            capacity=2 * TOTAL,
            policy=RetentionPolicy(slow_ms=0.0),  # retain everything
        ),
    )
    srv.start()
    try:
        yield srv, col
    finally:
        srv.close(drain_s=5.0)
        obs.uninstall()


class TestLoadtestTracing:
    def test_one_trace_tree_per_request(self, traced_server):
        srv, _ = traced_server
        report = run_loadtest(
            srv.host, srv.port, QUERIES,
            clients=CLIENTS, total=TOTAL, seed=42,
        )
        assert report.n_transport_errors == 0
        assert report.sent == TOTAL

        # Every outcome carries the trace id the server echoed, and
        # the ids are pairwise distinct — one trace per request.
        ids = [o.trace_id for o in report.outcomes]
        assert all(len(t) == 16 for t in ids)
        assert len(set(ids)) == TOTAL

        store = srv.trace_store
        _quiesce(store, TOTAL)
        st = store.stats()
        assert st["started"] == TOTAL
        assert st["completed"] == TOTAL
        assert st["inflight"] == 0
        assert st["retained"] == TOTAL  # slow_ms=0 retains all
        assert st["dropped"] == 0

        # Each retained trace is a single well-nested tree rooted at
        # the request span.
        for o in report.outcomes:
            trace = store.get(o.trace_id)
            assert trace is not None
            assert trace.completed
            root = trace.root
            assert root is not None
            assert root.name == "server.request"
            assert root.attrs["trace_id"] == o.trace_id
            assert not root.open
            child_names = [c.name for c in root.children]
            assert child_names[0] == "queue.wait"
            assert "gate.pin" in child_names
            # Spans nest inside the root's window.
            def within(span, lo, hi):
                assert lo <= span.start_ns
                assert span.end_ns is not None and span.end_ns <= hi
                for c in span.children:
                    within(c, span.start_ns, span.end_ns)
            for child in root.children:
                within(child, root.start_ns, root.end_ns)
            assert trace.n_spans == root.n_spans()

        # The loadtest report surfaces the slowest ids for follow-up.
        slow = report.slowest_traces()
        assert slow and slow[0]["trace_id"] in set(ids)
        assert slow == sorted(slow, key=lambda t: -t["elapsed_ms"])

        # The request-latency histogram carries trace-id exemplars
        # joinable back to retained traces, read over the wire.
        with PooledClient(srv.host, srv.port) as client:
            snap = client.stats()["metrics"]["server.request_ms"]
        assert snap["count"] == TOTAL
        exemplars = snap["exemplars"]
        assert any(store.get(e["trace_id"]) is not None
                   for e in exemplars)

    def test_eviction_under_pressure_counts_dropped(self, traced_server):
        srv, col = traced_server
        srv.trace_store.capacity = 4
        report = run_loadtest(
            srv.host, srv.port, QUERIES,
            clients=CLIENTS, total=TOTAL, seed=7,
        )
        assert report.n_transport_errors == 0
        _quiesce(srv.trace_store, TOTAL)
        st = srv.trace_store.stats()
        assert st["retained"] == 4
        assert st["retained_total"] == TOTAL
        assert st["dropped"] == TOTAL - 4
        assert col.metrics.snapshot()["trace.dropped"] == TOTAL - 4
        # Survivors are intact trees, not torn by concurrent eviction.
        for trace in srv.trace_store.retained():
            assert trace.completed
            assert trace.root is not None
            assert trace.root.name == "server.request"
            assert trace.retained_for == "slow"
        snap = srv.trace_store.snapshot(limit=10)
        assert len(snap["retained"]) == 4
        assert snap["inflight"] == []

    def test_tix_top_reads_the_query_port(self, traced_server, capsys):
        srv, col = traced_server
        with PooledClient(srv.host, srv.port) as client:
            for q in QUERIES:
                assert client.query(q).n_results > 0
        # A request's latency lands after its response is written.
        deadline = time.monotonic() + 5.0
        while (col.metrics.snapshot().get("server.request_ms", {})
               .get("count", 0) < len(QUERIES)
               and time.monotonic() < deadline):
            time.sleep(0.01)
        _quiesce(srv.trace_store, len(QUERIES))
        assert cli.main(["top", "--port", str(srv.port),
                         "--iterations", "1", "--plain"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith(f"tix top — {srv.address}  uptime ")
        assert lines[1].startswith("  requests: 2 served  p50/p95/p99 ")
        assert lines[2] == ("  admission: inflight 0  admitted 2  "
                            "rejected 0  degraded 0")
        assert lines[3] == ("  traces: 0 in flight  2/64 retained  "
                            "2 promoted  0 dropped")
        assert "  SLOWEST RETAINED" in lines
