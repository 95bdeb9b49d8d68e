"""End-to-end tests of the query server and client over real sockets:
typed error round trips, guard budgets across the wire, the overload
ladder, draining shutdown, connection reuse and reconnects."""

import socket
import struct
import threading
import time

import pytest

from repro import obs
from repro.errors import (
    OverloadedError,
    ProtocolError,
    QuerySyntaxError,
    ResourceExhaustedError,
    TIXError,
)
from repro.exampledata import example_store
from repro.query import run_query
from repro.resilience.run import GuardedResult
from repro.server import (
    Connection,
    PooledClient,
    QueryServer,
    run_loadtest,
)
from repro.server.protocol import read_frame, request, write_frame

QUERY = (
    'For $x in document("articles.xml")//section '
    'Score $x using ScoreFoo($x, {"search engine"}, {"internet"}) '
    'Return $x Sortby(score)'
)


@pytest.fixture()
def server():
    srv = QueryServer(example_store(), port=0)
    srv.start()
    yield srv
    srv.close(drain_s=2.0)


@pytest.fixture()
def client(server):
    with PooledClient(server.host, server.port,
                      call_timeout_s=10.0) as cl:
        yield cl


class _GatedRunner:
    """Deterministic slow runner: blocks until released, honouring the
    guard's cancellation token and degrade flag like the real engine."""

    def __init__(self):
        self.release = threading.Event()
        self.started = threading.Event()

    def __call__(self, source, guard):
        self.started.set()
        while not self.release.wait(0.01):
            try:
                guard.tick()
            except Exception as exc:
                if guard.degrade:
                    return GuardedResult(
                        [], truncated=True, reason=str(exc), error=exc,
                    )
                raise
        return GuardedResult(["<done/>"])


class TestQueryRoundTrip:
    def test_results_match_local_run(self, server, client):
        local = run_query(server.store, QUERY)
        remote = client.query(QUERY, with_scores=False)
        assert remote.n_results == len(local)
        assert not remote.truncated and not remote.degraded
        assert remote.generation == server.store.generation
        assert [r.xml for r in remote.rows] \
            == [t.to_xml(with_scores=False) for t in local]

    def test_scores_cross_the_wire(self, server, client):
        local = run_query(server.store, QUERY)
        remote = client.query(QUERY)
        assert [r.score for r in remote.rows] \
            == [t.score for t in local]

    def test_syntax_error_reraises_typed(self, client):
        with pytest.raises(QuerySyntaxError):
            client.query("For $x in nonsense ((( Return $x")

    def test_strict_row_budget_trips_typed(self, client):
        with pytest.raises(ResourceExhaustedError, match="row budget"):
            client.query(QUERY, max_rows=1, degrade=False)

    def test_degrade_returns_truncated_prefix(self, server, client):
        local = run_query(server.store, QUERY)
        remote = client.query(QUERY, max_rows=1, degrade=True)
        assert remote.truncated and "row budget" in remote.reason
        assert remote.n_results == 1
        assert remote.rows[0].xml == local[0].to_xml(with_scores=False)

    def test_ping_and_stats(self, client):
        assert client.ping()
        stats = client.stats()
        assert stats["draining"] is False
        assert stats["admitted"] >= 0
        # The admission counters stay top-level keys (the benchmark
        # reads them there); no collector installed, no metrics.
        for key in ("admitted", "rejected_overload", "rejected_shutdown",
                    "degraded"):
            assert isinstance(stats[key], int), key
        assert stats["metrics"] == {}
        assert stats["uptime_s"] >= 0

    def test_sequential_calls_reuse_the_pooled_connection(self):
        col = obs.Collector()
        obs.install(col)  # before start: the accept loop reads it once
        srv = QueryServer(example_store(), port=0)
        try:
            srv.start()
            with PooledClient(srv.host, srv.port,
                              call_timeout_s=10.0) as client:
                for _ in range(3):
                    assert client.query(QUERY).n_results > 0
            snapshot = col.metrics.snapshot()
            # one TCP connection total, three requests over it
            assert snapshot.get("server.connections", 0) == 1
            assert snapshot.get("server.requests.query", 0) == 3
        finally:
            obs.uninstall()
            srv.close(drain_s=1.0)


class TestBadRequests:
    def _raw(self, server, frame):
        with socket.create_connection(
                (server.host, server.port), timeout=5.0) as sock:
            write_frame(sock, frame)
            return read_frame(sock)

    def test_unsupported_version(self, server):
        resp = self._raw(server, {"v": 99, "id": 1, "op": "ping"})
        assert resp["ok"] is False
        assert resp["error"]["code"] == "BAD_REQUEST"

    def test_unknown_op(self, server):
        resp = self._raw(server, request("drop_tables", 1))
        assert resp["error"]["code"] == "BAD_REQUEST"

    def test_query_without_text(self, server):
        resp = self._raw(server, request("query", 1, q="   "))
        assert resp["error"]["code"] == "BAD_REQUEST"

    @pytest.mark.parametrize("count", ["0", "2.5"])
    def test_non_positive_stop_after_is_a_syntax_error(self, server, count):
        # Regression: 'stop after 0' with Sortby reached TopK's untyped
        # ValueError and came back INTERNAL; 2.5 silently meant 2.
        from repro.resilience import QueryGuard, run_query_guarded

        text = ('For $x in document("articles.xml")'
                '//article/descendant-or-self::* '
                'Score $x using ScoreFooExact($x, {"search"}) '
                'Return $x Sortby(score) '
                f'Threshold $x/@score > 0 stop after {count}')
        with pytest.raises(QuerySyntaxError, match="positive integer"):
            run_query_guarded(server.store, text, QueryGuard())
        resp = self._raw(server, request("query", 1, q=text))
        assert resp["ok"] is False
        assert resp["error"]["code"] == "SYNTAX"

    def test_malformed_budgets_are_typed_not_a_dead_thread(self, server):
        # On cd4c019 each of these escaped as an uncaught ValueError:
        # the connection thread died and the client read EOF.
        server.trace_store.policy.slow_ms = 60_000.0  # errors only
        bad = [{"timeout_ms": "abc"}, {"max_rows": "ten"},
               {"max_rows": -1}, {"timeout_ms": -5}]
        with socket.create_connection(
                (server.host, server.port), timeout=5.0) as sock:
            for rid, budget in enumerate(bad, 1):
                write_frame(sock, request("query", rid, q=QUERY, **budget))
                resp = read_frame(sock)
                assert resp is not None, budget  # not EOF
                assert resp["ok"] is False and resp["id"] == rid
                assert resp["error"]["code"] == "BAD_REQUEST", budget
                trace = server.trace_store.get(resp["trace_id"])
                assert trace.outcome == "error"
                assert trace.error_code == "BAD_REQUEST"
            # The same connection answers the next frame, and every
            # refused request gave its admission slot back.
            write_frame(sock, request("query", 9, q=QUERY, max_rows=1))
            resp = read_frame(sock)
            assert resp["ok"] is True and resp["n"] == 1
        # (released just after the response write, so poll briefly)
        deadline = time.monotonic() + 2.0
        while (server.admission.snapshot()["inflight"]
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert server.admission.snapshot()["inflight"] == 0

    def test_torn_frame_answered_typed_then_closed(self, server):
        with socket.create_connection(
                (server.host, server.port), timeout=5.0) as sock:
            sock.sendall(struct.pack("!I", 64) + b'{"v":')
            sock.shutdown(socket.SHUT_WR)
            resp = read_frame(sock)
            assert resp["ok"] is False
            assert resp["error"]["code"] == "BAD_FRAME"
            assert read_frame(sock) is None  # server closed cleanly

    def test_oversized_frame_rejected(self):
        srv = QueryServer(example_store(), port=0, max_frame_bytes=512)
        srv.start()
        try:
            with socket.create_connection(
                    (srv.host, srv.port), timeout=5.0) as sock:
                payload = b'{"pad":"' + b"x" * 600 + b'"}'
                sock.sendall(struct.pack("!I", len(payload)) + payload)
                resp = read_frame(sock)
                assert resp["error"]["code"] == "BAD_FRAME"
        finally:
            srv.close(drain_s=1.0)


class TestOverloadLadder:
    def test_second_query_rejected_overloaded(self):
        runner = _GatedRunner()
        srv = QueryServer(example_store(), port=0, max_inflight=1,
                          queue_timeout_ms=30.0, runner=runner)
        srv.start()
        c1 = PooledClient(srv.host, srv.port, call_timeout_s=10.0)
        c2 = PooledClient(srv.host, srv.port, call_timeout_s=10.0)
        try:
            first = []
            th = threading.Thread(
                target=lambda: first.append(client_query(c1)))
            th.start()
            assert runner.started.wait(5.0)
            with pytest.raises(OverloadedError):
                c2.query(QUERY)
            runner.release.set()
            th.join(5.0)
            assert first and first[0].n_results == 1
            # the rejection marked the overload sustained: the next
            # admitted query is degraded
            res = c2.query(QUERY)
            assert res.degraded
        finally:
            c1.close()
            c2.close()
            srv.close(drain_s=1.0)

    def test_draining_close_answers_inflight(self):
        runner = _GatedRunner()
        srv = QueryServer(example_store(), port=0, runner=runner)
        srv.start()
        cl = PooledClient(srv.host, srv.port, call_timeout_s=10.0)
        results = []
        try:
            th = threading.Thread(
                target=lambda: results.append(client_query(cl)))
            th.start()
            assert runner.started.wait(5.0)
            releaser = threading.Timer(0.1, runner.release.set)
            releaser.start()
            drained = srv.close(drain_s=5.0)
            th.join(5.0)
            assert drained is True
            assert results and results[0].n_results == 1
        finally:
            cl.close()

    def test_drain_timeout_cancels_via_guard_token(self):
        runner = _GatedRunner()  # never released: must be cancelled
        srv = QueryServer(example_store(), port=0, runner=runner)
        srv.start()
        cl = PooledClient(srv.host, srv.port, call_timeout_s=10.0)
        outcome = []

        def call():
            try:
                outcome.append(cl.query(QUERY, degrade=True))
            except (TIXError, OSError) as exc:
                outcome.append(exc)

        th = threading.Thread(target=call)
        th.start()
        try:
            assert runner.started.wait(5.0)
            drained = srv.close(drain_s=0.1, cancel_grace_s=2.0)
            th.join(5.0)
            assert not th.is_alive()
            # cancelled cooperatively within the grace period: the
            # degrade-mode request was still *answered* (truncated)
            assert drained is True
            assert outcome and not isinstance(outcome[0], Exception)
            assert outcome[0].truncated
            assert "cancelled" in outcome[0].reason
        finally:
            cl.close()


class TestBudgetResolution:
    """Request budgets × server caps × the admission verdict →
    ``(timeout_ms, max_rows, degrade)`` for the guard."""

    CAPS = dict(default_timeout_ms=None, max_timeout_ms=None,
                max_rows_cap=None, degrade_timeout_ms=1000.0,
                degrade_max_rows=100)

    @pytest.mark.parametrize("caps, req, degraded, expected", [
        # nothing asked, nothing capped: unbounded, degrade by default
        ({}, {}, False, (None, None, True)),
        ({}, {"degrade": False}, False, (None, None, False)),
        # request below / above the caps
        ({"max_timeout_ms": 500.0, "max_rows_cap": 50},
         {"timeout_ms": 200, "max_rows": 10}, False, (200.0, 10, True)),
        ({"max_timeout_ms": 500.0, "max_rows_cap": 50},
         {"timeout_ms": 900, "max_rows": 80}, False, (500.0, 50, True)),
        # absent: the default applies, and a cap stands in for no default
        ({"default_timeout_ms": 300.0}, {}, False, (300.0, None, True)),
        ({"default_timeout_ms": 300.0, "max_timeout_ms": 100.0},
         {}, False, (100.0, None, True)),
        ({"max_timeout_ms": 500.0, "max_rows_cap": 50},
         {}, False, (500.0, 50, True)),
        ({"default_timeout_ms": 300.0}, {"timeout_ms": 50},
         False, (50.0, None, True)),
        # a degraded ticket tightens by min and forces degrade mode
        ({}, {"degrade": False}, True, (1000.0, 100, True)),
        ({}, {"timeout_ms": 200, "max_rows": 10, "degrade": False},
         True, (200.0, 10, True)),
        ({"max_timeout_ms": 5000.0, "max_rows_cap": 500},
         {"timeout_ms": 9000, "max_rows": 900}, True, (1000.0, 100, True)),
        ({"degrade_timeout_ms": 50.0, "degrade_max_rows": 5},
         {"timeout_ms": 200, "max_rows": 10}, True, (50.0, 5, True)),
    ])
    def test_budget_table(self, caps, req, degraded, expected):
        from repro.server.admission import AdmissionTicket

        srv = QueryServer(example_store(), port=0,
                          **{**self.CAPS, **caps})
        try:
            ticket = AdmissionTicket(generation=0, degraded=degraded)
            assert srv._budgets(req, ticket) == expected
        finally:
            srv.close(drain_s=0.1)


def client_query(cl, **kw):
    return cl.query(QUERY, **kw)


class TestPoolAndBreaker:
    """The client's one connection: reuse, reconnect, close, and the
    frozen benchmark harness's calls."""

    def test_client_retries_transient_failure_on_fresh_connection(
            self, server):
        cl = PooledClient(server.host, server.port, call_timeout_s=10.0,
                          seed=7)
        try:
            first = cl.query(QUERY)
            assert first.n_results > 0
            # poison the client's socket: the server never sees a valid
            # frame on it again, so the next call's first attempt dies
            # and the retry must succeed on a fresh connection
            assert cl._conn is not None
            cl._conn._sock.close()
            second = cl.query(QUERY)
            assert second.n_results == first.n_results
        finally:
            cl.close()

    def test_closed_client_fails_without_retrying(self, server):
        cl = PooledClient(server.host, server.port, call_timeout_s=10.0)
        assert cl.stats()["draining"] is False
        cl.close()
        col = obs.Collector()
        obs.install(col)
        try:
            with pytest.raises(ConnectionError, match="closed"):
                cl.stats()
            snapshot = col.metrics.snapshot()
            assert snapshot.get("resilience.retries", 0) == 0
            assert snapshot.get("resilience.retry_giveups", 0) == 0
        finally:
            obs.uninstall()
        assert cl.ping() is False

    def test_reconnects_after_the_server_evicts_an_idle_connection(self):
        col = obs.Collector()
        obs.install(col)  # before start: the accept loop reads it once
        srv = QueryServer(example_store(), port=0, idle_timeout_s=0.2)
        try:
            srv.start()
            with PooledClient(srv.host, srv.port, call_timeout_s=10.0,
                              seed=5) as cl:
                first = cl.query(QUERY)
                time.sleep(0.6)  # the server closes the idle connection
                second = cl.query(QUERY)
            assert second.n_results == first.n_results > 0
            snapshot = col.metrics.snapshot()
            assert snapshot.get("resilience.retries", 0) == 1
            assert snapshot.get("server.connections", 0) == 2
        finally:
            obs.uninstall()
            srv.close(drain_s=1.0)

    def test_frozen_harness_calls(self, server):
        # benchmarks/stack/workloads.py: construct with size=1, query,
        # read the admission stats, close, then close again on exit.
        with PooledClient("127.0.0.1", server.port, size=1) as client:
            assert client.query(QUERY).n_results > 0
            assert client.stats()["admitted"] >= 1
            client.close()
        with pytest.raises(ValueError, match="size"):
            PooledClient("127.0.0.1", server.port, size=2)

    def test_connection_rejects_mismatched_response_id(self):
        ours, theirs = socket.socketpair()

        def fake_server():
            req = read_frame(theirs)
            write_frame(theirs, {"v": 1, "id": req["id"] + 7,
                                 "ok": True, "pong": True})

        th = threading.Thread(target=fake_server)
        th.start()
        conn = Connection(ours, call_timeout_s=5.0)
        try:
            with pytest.raises(ProtocolError, match="does not match"):
                conn.call("ping")
        finally:
            th.join(5.0)
            conn.close()
            theirs.close()

    def test_loadtest_smoke(self, server):
        report = run_loadtest(server.host, server.port, [QUERY],
                              clients=2, total=6, seed=3)
        assert report.sent == 6
        assert report.n_ok == 6
        assert report.n_transport_errors == 0
        d = report.to_dict()
        assert d["sent"] == 6 and d["clients"] == 2
        assert "loadtest: 6 requests" in report.render()
