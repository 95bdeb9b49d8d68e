"""Trace-context propagation across the wire, mixed-version protocol
compatibility, the ``traces`` wire op, and the audit-log v3 round trip
(mixed v1/v2/v3 files stay readable and ``trace_id`` joins a record to
its retained trace)."""

import json
import socket
import threading
import time

import pytest

from repro import cli, obs
from repro.errors import DocumentNotFoundError
from repro.exampledata import example_store
from repro.obs import events
from repro.obs.trace import chrome_trace_events
from repro.obs.tracestore import RetentionPolicy, TraceStore
from repro.server import PooledClient, QueryServer
from repro.server.protocol import (
    TRACE_FIELD,
    parse_trace_context,
    read_frame,
    request,
    trace_fields,
    write_frame,
)

QUERY = (
    'For $x in document("articles.xml")//section '
    'Score $x using ScoreFoo($x, {"search engine"}, {"internet"}) '
    'Return $x Sortby(score)'
)

#: A query the compiler accepts, so execution takes the pipelined
#: ``execute.guarded`` path with per-operator spans.
COMPILABLE_QUERY = (
    'For $x in document("articles.xml")/article/descendant-or-self::* '
    'Score $x using ScoreFooExact($x, {"search"}, {"engine"}) '
    'Return $x Sortby(score)'
)


@pytest.fixture()
def server():
    # slow_ms=0 retains every completed trace, so assertions do not
    # depend on scheduler timing.
    srv = QueryServer(
        example_store(), port=0,
        trace_store=TraceStore(policy=RetentionPolicy(slow_ms=0.0)),
    )
    srv.start()
    yield srv
    srv.close(drain_s=2.0)


@pytest.fixture()
def client(server):
    with PooledClient(server.host, server.port,
                      call_timeout_s=10.0) as cl:
        yield cl


def _raw(server, frame):
    with socket.create_connection(
            (server.host, server.port), timeout=5.0) as sock:
        write_frame(sock, frame)
        return read_frame(sock)


class TestMixedVersionProtocol:
    """Satellite (b): old client ↔ new server and new client ↔ old
    server both keep working — no protocol version bump."""

    def test_old_client_frame_without_trace_gets_local_root(self, server):
        resp = _raw(server, request("query", 1, q=QUERY))
        assert resp["ok"] is True
        tid = resp["trace_id"]
        assert len(tid) == 16  # server-minted root
        trace = server.trace_store.get(tid)
        assert trace is not None
        assert trace.parent_span_id == ""  # no propagated parent
        assert trace.attempt == 0

    @pytest.mark.parametrize("bad", [
        "garbage", 17, ["x"], {}, {"span": "p"}, {"id": ""},
        {"id": 42}, {"id": None, "attempt": 1},
    ])
    def test_malformed_trace_field_is_ignored_not_fatal(self, server, bad):
        resp = _raw(server, request("query", 1, q=QUERY,
                                    **{TRACE_FIELD: bad}))
        assert resp["ok"] is True
        # The server minted its own root rather than failing.
        assert len(resp["trace_id"]) == 16

    def test_propagated_context_continues_the_client_trace(self, server):
        frame = request("query", 7, q=QUERY)
        frame[TRACE_FIELD] = {"id": "feedfacecafe0001",
                              "span": "beefbeefbeef0001", "attempt": 2}
        resp = _raw(server, frame)
        assert resp["ok"] is True
        assert resp["trace_id"] == "feedfacecafe0001"
        trace = server.trace_store.get("feedfacecafe0001")
        assert trace.parent_span_id == "beefbeefbeef0001"
        assert trace.attempt == 2

    def test_negative_attempt_clamped_to_zero(self, server):
        frame = request("query", 8, q=QUERY)
        frame[TRACE_FIELD] = {"id": "a" * 16, "attempt": -4}
        resp = _raw(server, frame)
        assert resp["ok"] is True
        assert server.trace_store.get("a" * 16).attempt == 0

    def test_new_client_against_old_server_sees_empty_trace_id(self):
        """An old server answers without ``trace_id``; the client
        surfaces "" instead of failing (and sends the trace field the
        old server simply ignores)."""
        seen = {}
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]

        def old_server():
            conn, _ = listener.accept()
            with conn:
                frame = read_frame(conn)
                seen["frame"] = frame
                # v1 response shape from before tracing existed.
                write_frame(conn, {
                    "v": 1, "id": frame["id"], "ok": True,
                    "results": [], "n_results": 0, "truncated": False,
                    "reason": "", "degraded": False, "generation": 0,
                })

        th = threading.Thread(target=old_server, daemon=True)
        th.start()
        try:
            with PooledClient("127.0.0.1", port, retries=1,
                              call_timeout_s=5.0) as cl:
                res = cl.query(QUERY)
            assert res.trace_id == ""
            sent = seen["frame"][TRACE_FIELD]
            assert set(sent) == {"id", "span", "attempt"}
            assert sent["attempt"] == 0
        finally:
            th.join(timeout=5.0)
            listener.close()

    def test_client_can_disable_tracing(self, server):
        with PooledClient(server.host, server.port, trace=False,
                          call_timeout_s=10.0) as cl:
            res = cl.query(QUERY)
        # The server still mints a local root and echoes it.
        assert len(res.trace_id) == 16
        assert server.trace_store.get(res.trace_id).parent_span_id == ""

    def test_trace_fields_helpers_round_trip(self):
        assert trace_fields(None) == {}
        frame = request("query", 1, q="x")
        assert parse_trace_context(frame) is None
        from repro.obs.tracestore import TraceContext

        ctx = TraceContext.mint()
        frame.update(trace_fields(ctx))
        back = parse_trace_context(frame)
        assert back.trace_id == ctx.trace_id
        assert back.parent_span_id == ctx.parent_span_id


class TestTracesWireOp:
    def test_snapshot_lists_the_request_trace(self, server, client):
        res = client.query(QUERY)
        assert len(res.trace_id) == 16
        snap = client.traces()
        assert snap["stats"]["completed"] >= 1
        retained = {t["trace_id"]: t for t in snap["retained"]}
        row = retained[res.trace_id]
        assert row["outcome"] == "ok"
        assert row["retained_for"] == "slow"  # slow_ms=0 policy
        assert row["op"] == "query"

    def test_fetch_one_trace_with_span_tree(self, server, client):
        col = obs.Collector()
        obs.install(col)
        try:
            res = client.query(COMPILABLE_QUERY)
        finally:
            obs.uninstall()
        trace = client.traces(res.trace_id)
        assert trace["trace_id"] == res.trace_id
        root = trace["spans"]
        assert root["name"] == "server.request"
        assert root["attrs"]["trace_id"] == res.trace_id
        names = [c["name"] for c in root["children"]]
        assert names[0] == "queue.wait"
        assert "gate.pin" in names
        assert "execute.guarded" in names
        guarded = next(c for c in root["children"]
                       if c["name"] == "execute.guarded")
        assert any(c["name"].startswith("open:")
                   for c in guarded.get("children", []))

    def test_chrome_export_of_a_fetched_trace(self, server, client):
        # The server ships the span tree; the Chrome view is rendered
        # client-side from it (what ``tix trace --chrome-out`` does).
        col = obs.Collector()
        obs.install(col)
        try:
            res = client.query(QUERY)
        finally:
            obs.uninstall()
        chrome = chrome_trace_events([client.traces(res.trace_id)["spans"]])
        events_ = chrome["traceEvents"]
        assert events_ and events_[0]["name"] == "server.request"
        assert all(e["ph"] == "X" for e in events_)

    def test_unknown_trace_id_raises_typed(self, server, client):
        with pytest.raises(DocumentNotFoundError):
            client.traces("0000000000000000")

    def test_error_requests_always_retained(self, server, client):
        # Tail retention must hold even when "slow" can't trigger.
        server.trace_store.policy.slow_ms = 60_000.0
        from repro.errors import QuerySyntaxError

        with pytest.raises(QuerySyntaxError):
            client.query("definitely not a query")
        errs = [t for t in client.traces()["retained"]
                if t["retained_for"] == "error"]
        assert errs and errs[0]["outcome"] == "error"
        assert errs[0]["error_code"] != ""


class TestRecordParity:
    """One request, one record: the audit line and the retained trace
    are two projections of the same :class:`QueryEvent`, so they cannot
    disagree — whatever way the request ended."""

    @pytest.fixture()
    def served(self):
        """A loopback server with a cache, a collector and an audit
        sink installed; ``finish()`` returns the parsed audit lines
        once every request's trace has completed."""
        import io

        from repro.perf import QueryCache

        store = example_store()
        srv = QueryServer(
            store, port=0, cache=QueryCache(store), max_inflight=1,
            queue_timeout_ms=30.0,
            trace_store=TraceStore(policy=RetentionPolicy(slow_ms=0.0)),
        )
        buf = io.StringIO()
        sink = events.JsonlSink(buf)
        events.install_sink(sink)
        obs.install(obs.Collector())
        srv.start()

        def finish(n):
            deadline = time.monotonic() + 5.0
            while (srv.trace_store.stats()["completed"] < n
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            return list(events.iter_events(io.StringIO(buf.getvalue())))

        try:
            yield srv, finish
        finally:
            srv.close(drain_s=2.0)
            obs.uninstall()
            events.uninstall_sink()

    def test_audit_line_and_trace_agree_however_the_request_ended(
            self, served):
        server, finish = served
        held = []

        def overloaded():
            # Hold the only slot so the request is refused at admission.
            held.append(server.admission.admit(server.store.generation))
            return {}

        scenarios = [
            # name, extra request fields, outcome, wire error code
            ("ok", lambda: {}, "ok", ""),
            ("degrade-truncated",
             lambda: {"max_rows": 1, "degrade": True}, "truncated", ""),
            ("strict trip", lambda: {"max_rows": 1, "degrade": False},
             "error", "RESOURCE_EXHAUSTED"),
            ("overloaded", overloaded, "error", "OVERLOADED"),
            ("malformed budget", lambda: {"timeout_ms": "abc"},
             "error", "BAD_REQUEST"),
            ("evaluator fallback", lambda: {"q": QUERY}, "ok", ""),
            ("result-cache hit", lambda: {}, "ok", ""),
        ]
        answered = []
        for rid, (name, fields, outcome, code) in enumerate(scenarios, 1):
            frame = request("query", rid,
                            **{"q": COMPILABLE_QUERY, **fields()})
            resp = _raw(server, frame)
            while held:
                server.admission.release(held.pop())
            assert resp["ok"] is (outcome != "error"), name
            if code:
                assert resp["error"]["code"] == code, name
            answered.append((name, outcome, code, resp["trace_id"]))

        lines = finish(len(scenarios))
        # Exactly one audit line and one trace per request ...
        assert len(lines) == len(scenarios)
        assert server.trace_store.stats()["completed"] == len(scenarios)
        by_trace = {r["trace_id"]: r for r in lines}
        assert len(by_trace) == len(scenarios)
        for name, outcome, code, tid in answered:
            audit = by_trace[tid]
            trace = server.trace_store.get(tid)
            row = trace.summary()
            # ... and the two agree.
            assert audit["outcome"] == row["outcome"] == outcome, name
            assert audit["truncated"] is row["truncated"], name
            assert audit["truncated"] is (outcome == "truncated"), name
            assert audit["query_sha256"] == row["query_sha256"], name
            assert abs(audit["wall_ms"] - row["wall_ms"]) <= 1.0, name
            assert audit["error_code"] == row["error_code"] == code, name
            assert row["n_spans"] >= 1, name
        assert by_trace[answered[0][3]]["cache"] == "miss"
        assert by_trace[answered[6][3]]["cache"] == "hit"
        assert by_trace[answered[5][3]]["ops"] == []  # no plan ran

    def test_close_spans_carry_the_plan_stats_node(self):
        """A retained trace shows what EXPLAIN ANALYZE shows: every
        operator's close span carries its own ``plan_stats`` node."""
        from repro.engine.base import plan_stats
        from repro.resilience.run import run_query_guarded

        store = example_store()
        executed = []

        def runner(source, guard):
            res = run_query_guarded(store, source, guard)
            executed.append(plan_stats(res.plan))
            return res

        srv = QueryServer(
            store, port=0, runner=runner,
            trace_store=TraceStore(policy=RetentionPolicy(slow_ms=0.0)),
        )
        obs.install(obs.Collector())
        try:
            srv.start()
            with PooledClient(srv.host, srv.port,
                              call_timeout_s=10.0) as cl:
                res = cl.query(COMPILABLE_QUERY)
                spans = cl.traces(res.trace_id)["spans"]
        finally:
            srv.close(drain_s=2.0)
            obs.uninstall()

        def nodes(node):
            yield node
            for child in node["children"]:
                yield from nodes(child)

        def close_spans(span):
            if span["name"].startswith("close:"):
                yield span["attrs"]
            for child in span.get("children", ()):
                yield from close_spans(child)

        facts = ("describe", "rows", "est_rows", "q_error", "loops",
                 "time_ms", "self_time_ms", "counters")
        (plan,) = executed
        from_plan = sorted(
            json.dumps([n[k] for k in facts], sort_keys=True)
            for n in nodes(plan))
        from_trace = sorted(
            json.dumps([a[k] for k in facts], sort_keys=True)
            for a in close_spans(spans))
        assert from_trace == from_plan
        assert len(from_plan) > 1 and plan["est_rows"] is not None


def _v1_record(trace_join=""):
    return {
        "v": 1, "ts": 1_700_000_000.0, "kind": "query",
        "query_sha256": "aa" * 8, "outcome": "ok", "wall_ms": 1.5,
        "rows": 3, "truncated": False, "reason": "", "error_type": "",
        "cache": "", "guard": {"active": False, "degraded": False,
                               "trip": ""},
        "ops": [{"operator": "Scan", "rows": 3, "time_ms": 0.2}],
    }


def _v2_record():
    r = _v1_record()
    r["v"] = 2
    r["plan_cache"] = "hit"
    r["ops"] = [{"operator": "Scan", "rows": 3, "est_rows": 4.0,
                 "q_error": 1.33, "time_ms": 0.2}]
    return r


class TestAuditV3RoundTrip:
    """Mixed v1/v2/v3 audit files list without loss in ``tix events``
    (it renders whatever JSON it is given), ``tix feedback`` aggregates
    the current version only, and the v3 ``trace_id`` joins records to
    retained traces."""

    def _mixed_file(self, tmp_path, v3_extra=None):
        ev = events.QueryEvent("query text")
        ev.note_result(2)
        v3 = ev.to_record()
        if v3_extra:
            v3.update(v3_extra)
        path = tmp_path / "audit.jsonl"
        with open(path, "w", encoding="utf-8") as f:
            for rec in (_v1_record(), _v2_record(), v3):
                f.write(json.dumps(rec) + "\n")
        return path, v3

    def test_iter_and_filter_read_all_versions(self, tmp_path):
        path, v3 = self._mixed_file(tmp_path)
        with open(path, encoding="utf-8") as f:
            records = list(events.iter_events(f))
        assert [r["v"] for r in records] == [1, 2, 3]
        assert "trace_id" not in records[0]
        assert records[2]["trace_id"] == v3["trace_id"]
        kept = list(events.filter_events(records, outcome="ok"))
        assert len(kept) == 3  # no version is silently dropped

    def test_tix_events_renders_mixed_file(self, tmp_path, capsys):
        path, _ = self._mixed_file(tmp_path)
        assert cli.main(["events", str(path)]) == 0
        out = capsys.readouterr().out
        assert "(3 of 3 events)" in out

    def test_tix_feedback_skips_the_old_versions(self, tmp_path, capsys):
        path, _ = self._mixed_file(tmp_path)
        assert cli.main(["feedback", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n_records"] == 1  # the v3 line
        assert report["n_skipped"] == 2  # v1 + v2: counted, not read

    def test_served_query_trace_id_joins_audit_to_trace(
            self, server, client, tmp_path):
        path = tmp_path / "served.jsonl"
        sink = events.JsonlSink(str(path))
        events.install_sink(sink)
        try:
            res = client.query(QUERY)
        finally:
            events.uninstall_sink()
            sink.close()
        with open(path, encoding="utf-8") as f:
            (record,) = list(events.iter_events(f))
        assert record["v"] == 3
        assert record["trace_id"] == res.trace_id
        trace = server.trace_store.get(record["trace_id"])
        assert trace is not None
        assert trace.query_sha256 == record["query_sha256"]

    def test_local_untraced_execution_logs_empty_trace_id(self):
        ev = events.QueryEvent("q")
        ev.note_result(0)
        assert ev.to_record()["trace_id"] == ""
