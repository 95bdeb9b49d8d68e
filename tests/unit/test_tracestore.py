"""Unit tests for the distributed-trace layer: context propagation
parsing, tail-based retention verdicts, the bounded trace store, span
detachment, partial-span Chrome export, and histogram exemplars."""

import json
import threading

import pytest

from repro import obs
from repro.obs.events import QueryEvent
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.trace import (
    Span,
    Tracer,
    chrome_trace_events,
    render_span_tree,
)
from repro.obs.tracestore import (
    RetentionPolicy,
    TraceContext,
    TraceStore,
    new_span_id,
    new_trace_id,
)


class TestTraceContext:
    def test_mint_and_wire_round_trip(self):
        ctx = TraceContext.mint()
        assert len(ctx.trace_id) == 16
        assert len(ctx.parent_span_id) == 16
        back = TraceContext.from_wire(ctx.to_wire())
        assert back is not None
        assert back.trace_id == ctx.trace_id
        assert back.parent_span_id == ctx.parent_span_id
        assert back.attempt == 0

    def test_wire_field_shape(self):
        ctx = TraceContext("abc123", parent_span_id="def456", attempt=2)
        assert ctx.to_wire() == {
            "id": "abc123", "span": "def456", "attempt": 2,
        }

    @pytest.mark.parametrize("bad", [
        None, "a-string", 7, [], {}, {"span": "x"}, {"id": ""},
        {"id": 5}, {"id": None},
    ])
    def test_malformed_wire_values_parse_to_none(self, bad):
        # Tolerance is the back-compat contract: an old or buggy
        # client must never poison the serving path.
        assert TraceContext.from_wire(bad) is None

    def test_partial_wire_values_clamp(self):
        ctx = TraceContext.from_wire({"id": "t1", "attempt": -3})
        assert ctx is not None
        assert ctx.trace_id == "t1"
        assert ctx.parent_span_id == ""
        assert ctx.attempt == 0
        ctx = TraceContext.from_wire({"id": "t2", "span": 9,
                                      "attempt": "x"})
        assert ctx.parent_span_id == ""
        assert ctx.attempt == 0

    def test_ids_are_unique(self):
        assert len({new_trace_id() for _ in range(64)}) == 64
        assert len({new_span_id() for _ in range(64)}) == 64


def _completed(store):
    t = store.begin(op="query")
    store.complete(t)
    return t


class TestRetentionPolicy:
    def _trace(self, wall_ms=0.0):
        t = QueryEvent("q")
        t.end_ns = t.start_ns + int(wall_ms * 1e6)
        return t

    def test_error_wins_over_everything(self):
        pol = RetentionPolicy(slow_ms=0.0)
        t = self._trace(wall_ms=100.0)
        t.outcome = "error"
        t.degraded = True
        assert pol.verdict(t) == "error"

    def test_degraded_and_truncated_force_retention(self):
        pol = RetentionPolicy(slow_ms=None)
        t = self._trace()
        t.outcome = "ok"
        t.degraded = True
        assert pol.verdict(t) == "degraded"
        t2 = self._trace()
        t2.outcome = "truncated"
        t2.truncated = True
        assert pol.verdict(t2) == "degraded"

    def test_slow_threshold(self):
        pol = RetentionPolicy(slow_ms=50.0)
        slow = self._trace(wall_ms=60.0)
        slow.outcome = "ok"
        fast = self._trace(wall_ms=10.0)
        fast.outcome = "ok"
        assert pol.verdict(slow) == "slow"
        assert pol.verdict(fast) == ""

    def test_head_sample_is_latency_independent(self):
        # The sampled verdict comes from the flag drawn at begin(),
        # not from anything measured at completion.
        pol = RetentionPolicy(slow_ms=None, sample_rate=0.5)
        t = self._trace(wall_ms=1.0)
        t.outcome = "ok"
        t.head_sampled = True
        assert pol.verdict(t) == "sampled"
        t.head_sampled = False
        assert pol.verdict(t) == ""

    def test_head_sample_deterministic_under_seed(self):
        a = RetentionPolicy(sample_rate=0.5, seed=7)
        b = RetentionPolicy(sample_rate=0.5, seed=7)
        draws_a = [a.head_sample() for _ in range(100)]
        draws_b = [b.head_sample() for _ in range(100)]
        assert draws_a == draws_b
        assert any(draws_a) and not all(draws_a)

    def test_sample_rate_edges(self):
        assert RetentionPolicy(sample_rate=1.0).head_sample() is True
        assert RetentionPolicy(sample_rate=0.0).head_sample() is False
        with pytest.raises(ValueError):
            RetentionPolicy(sample_rate=1.5)

    def test_retention_can_be_disabled_per_class(self):
        pol = RetentionPolicy(slow_ms=None, retain_errors=False,
                              retain_degraded=False)
        t = self._trace()
        t.outcome = "error"
        t.degraded = True
        assert pol.verdict(t) == ""


class TestTraceStore:
    def test_begin_without_context_mints_root(self):
        store = TraceStore()
        t = store.begin(op="query", source="abc")
        assert len(t.trace_id) == 16
        assert t.attempt == 0
        assert not t.completed
        assert store.get(t.trace_id) is t
        assert [x.trace_id for x in store.inflight()] == [t.trace_id]

    def test_begin_with_context_continues_client_trace(self):
        store = TraceStore()
        ctx = TraceContext("c" * 16, parent_span_id="p" * 16, attempt=1)
        t = store.begin(ctx, op="query")
        assert t.trace_id == "c" * 16
        assert t.parent_span_id == "p" * 16
        assert t.attempt == 1

    def test_complete_applies_policy_and_moves_to_retained(self):
        store = TraceStore(policy=RetentionPolicy(slow_ms=0.0))
        t = store.begin(op="query")
        reason = store.complete(t)
        assert reason == "slow"
        assert t.retained_for == "slow"
        assert t.completed
        assert store.inflight() == []
        assert store.get(t.trace_id) is t

    def test_fast_success_is_dropped_at_sample_zero(self):
        store = TraceStore(policy=RetentionPolicy(slow_ms=10_000.0))
        t = store.begin(op="query")
        assert store.complete(t) == ""
        assert store.get(t.trace_id) is None
        assert store.stats()["retained"] == 0

    def test_eviction_is_oldest_first_and_counted(self):
        store = TraceStore(capacity=3,
                           policy=RetentionPolicy(slow_ms=0.0))
        traces = [_completed(store) for _ in range(5)]
        st = store.stats()
        assert st["retained"] == 3
        assert st["retained_total"] == 5
        assert st["dropped"] == 2
        kept = [t.trace_id for t in store.retained()]
        assert kept == [t.trace_id for t in traces[2:]]
        # Evicted ids are gone; survivors still resolvable.
        assert store.get(traces[0].trace_id) is None
        assert store.get(traces[4].trace_id) is traces[4]

    def test_retry_collision_keeps_both_trees(self):
        store = TraceStore(policy=RetentionPolicy(slow_ms=0.0))
        ctx0 = TraceContext("t" * 16, attempt=0)
        ctx1 = TraceContext("t" * 16, attempt=1)
        a = store.begin(ctx0, op="query")
        b = store.begin(ctx1, op="query")
        assert a.store_key != b.store_key
        assert len(store.inflight()) == 2
        store.complete(a)
        b.note_error("QueryTimeoutError")
        store.complete(b)
        assert store.stats() == {
            "capacity": 256, "started": 2, "completed": 2,
            "inflight": 0, "retained": 2, "retained_total": 2,
            "dropped": 0,
        }

    def test_snapshot_shape_and_ordering(self):
        store = TraceStore(policy=RetentionPolicy(slow_ms=0.0))
        done = [_completed(store) for _ in range(3)]
        live = store.begin(op="query")
        snap = store.snapshot(limit=2)
        assert set(snap) == {"stats", "inflight", "retained"}
        assert [t["trace_id"] for t in snap["inflight"]] == [live.trace_id]
        # Newest first, capped at the limit.
        assert [t["trace_id"] for t in snap["retained"]] == [
            done[2].trace_id, done[1].trace_id,
        ]
        row = snap["retained"][0]
        assert row["status"] == "completed"
        assert row["retained_for"] == "slow"
        json.dumps(snap)  # wire/HTTP payload must be serializable

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            TraceStore(capacity=0)

    def test_metrics_emitted_through_recorder(self):
        col = obs.Collector()
        obs.install(col)
        try:
            store = TraceStore(capacity=1,
                               policy=RetentionPolicy(slow_ms=0.0))
            _completed(store)
            _completed(store)          # evicts the first
            t = store.begin(op="query")
            snap = col.metrics.snapshot()
            assert snap["trace.started"] == 3
            assert snap["trace.completed"] == 2
            assert snap["trace.inflight"] == 1
            assert snap["trace.retained.slow"] == 2
            assert snap["trace.dropped"] == 1
            t.note_error("Boom")
            store.complete(t)
            assert col.metrics.snapshot()["trace.retained.error"] == 1
        finally:
            obs.uninstall()

    def test_concurrent_begin_complete_is_consistent(self):
        store = TraceStore(capacity=8,
                           policy=RetentionPolicy(slow_ms=0.0))

        def worker():
            for _ in range(50):
                store.complete(store.begin(op="query"))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        st = store.stats()
        assert st["started"] == st["completed"] == 200
        assert st["inflight"] == 0
        assert st["retained"] == 8
        assert st["retained_total"] == 200
        assert st["dropped"] == 192


class TestTraceObject:
    def test_summary_of_inflight_trace_reports_running_wall(self):
        t = QueryEvent("q", context=TraceContext(new_trace_id()))
        s = t.summary()
        assert s["status"] == "inflight"
        assert s["wall_ms"] >= 0.0
        assert s["outcome"] == ""
        assert s["n_spans"] == 0

    def test_to_dict_includes_span_tree(self):
        tracer = Tracer()
        root = tracer.begin("server.request")
        with tracer.span("parse"):
            pass
        tracer.end(root)
        t = QueryEvent("q")
        t.root = root
        d = t.to_dict()
        assert d["spans"]["name"] == "server.request"
        assert [c["name"] for c in d["spans"]["children"]] == ["parse"]
        assert t.n_spans == 2

    def test_two_projections_of_one_record(self):
        ctx = TraceContext("c" * 16, parent_span_id="p" * 16, attempt=2)
        with QueryEvent("query text", context=ctx) as t:
            t.note_result(3, truncated=True, reason="row budget")
        audit, row = t.to_record(), t.summary()
        assert audit["trace_id"] == row["trace_id"] == "c" * 16
        assert audit["query_sha256"] == row["query_sha256"]
        assert audit["outcome"] == row["outcome"] == "truncated"
        assert audit["truncated"] is row["truncated"] is True
        assert audit["wall_ms"] == row["wall_ms"]
        assert audit["ts"] == t.ts and row["attempt"] == 2


def _recorded_forest():
    """A hand-built forest: two threads, one span left open."""
    def span(name, start, end, tid, **attrs):
        s = Span(name, start, **attrs)
        s.end_ns, s.tid = end, tid
        return s

    root = span("server.request", 1_000_000, None, 7001,
                trace_id="t1", attempt=0)
    guarded = span("execute.guarded", 1_020_000, None, 7001)
    guarded.children = [
        span("open:scan", 1_021_000, 1_050_500, 7001, op="scan(x)"),
        span("close:scan", 1_060_000, None, 7001, op="scan(x)", rows=3,
             counters={"postings_scanned": 9}),
    ]
    root.children = [
        span("queue.wait", 1_002_000, 1_010_000, 7001, queued_ms=0.004),
        guarded,
    ]
    return [root, span("snapshot", 500_000, 900_000, 42)]


class TestSpanViews:
    """One Chrome exporter and one text renderer, both over the
    serialized (``Span.to_dict``) form; exports must stay well-formed
    while spans are still open (an in-flight query snapshotted
    mid-execution)."""

    def test_chrome_export_pinned(self):
        # What cd4c019's Span-walking ``chrome_trace_events(roots,
        # now_ns=2_000_000)`` printed for this forest, before that
        # exporter and ``chrome_trace_from_dict`` became this one.
        def ev(name, ts, dur, tid, **args):
            return {"name": name, "ph": "X", "ts": ts, "dur": dur,
                    "pid": 0, "tid": tid, "args": args}

        spans = [s.to_dict(2_000_000) for s in _recorded_forest()]
        spans = json.loads(json.dumps(spans))  # as read back from a file
        assert chrome_trace_events(spans) == {"traceEvents": [
            ev("server.request", 500.0, 1000.0, 1,
               trace_id="t1", attempt=0, open=True),
            ev("queue.wait", 502.0, 8.0, 1, queued_ms=0.004),
            ev("execute.guarded", 520.0, 980.0, 1, open=True),
            ev("open:scan", 521.0, 29.5, 1, op="scan(x)"),
            ev("close:scan", 560.0, 940.0, 1, op="scan(x)", rows=3,
               counters={"postings_scanned": 9}, open=True),
            ev("snapshot", 0.0, 400.0, 0),
        ]}
        assert chrome_trace_events([]) == {"traceEvents": []}

    def test_tracer_export_is_the_same_exporter(self):
        tracer = Tracer()
        root = tracer.begin("server.request")
        tracer.begin("execute.guarded")  # left open
        events = tracer.to_chrome_trace()["traceEvents"]
        assert [e["name"] for e in events] == \
            ["server.request", "execute.guarded"]
        for ev in events:
            assert ev["ph"] == "X"
            assert ev["args"]["open"] is True
            assert ev["dur"] > 0.0
        assert root.open

    def test_shared_now_keeps_snapshot_consistent(self):
        tracer = Tracer()
        root = tracer.begin("a")
        child = tracer.begin("b")
        now_ns = root.start_ns + 5_000_000
        d = root.to_dict(now_ns)
        assert d["open"] is True
        assert d["duration_ns"] == 5_000_000
        assert d["children"][0]["open"] is True
        assert child.duration_ns_at(now_ns) <= d["duration_ns"]

    def test_closed_spans_do_not_carry_open_flag(self):
        tracer = Tracer()
        with tracer.span("done"):
            pass
        (ev,) = tracer.to_chrome_trace()["traceEvents"]
        assert "open" not in ev["args"]
        d = tracer.roots[0].to_dict()
        assert "open" not in d

    def test_text_tree_shows_self_time(self):
        root = _recorded_forest()[0].to_dict(2_000_000)
        lines = render_span_tree(root)
        assert len(lines) == 5
        # 1.000 ms total, 0.008 + 0.980 ms in children.
        assert "server.request" in lines[0]
        assert "1.000 ms  self     0.012 ms (open)" in lines[0]
        assert "attempt=0 trace_id=t1" in lines[0]
        # A leaf's self time is its duration.
        assert "0.029 ms  self     0.029 ms" in lines[3]
        assert lines[3].startswith("      open:scan")
        # max_depth cuts the tree, not the arithmetic.
        cut = render_span_tree(root, 1, max_depth=2)
        assert [ln.split()[0] for ln in cut] == \
            ["server.request", "queue.wait", "execute.guarded"]


class TestDetach:
    def test_detach_frees_roots_and_span_budget(self):
        tracer = Tracer()
        root = tracer.begin("server.request")
        with tracer.span("child"):
            pass
        tracer.end(root)
        assert tracer.n_spans == 2
        assert tracer.detach(root) is True
        assert tracer.roots == []
        assert tracer.n_spans == 0
        # The subtree itself survives for the trace store.
        assert root.n_spans() == 2

    def test_detach_rejects_non_roots_and_none(self):
        tracer = Tracer()
        root = tracer.begin("r")
        child = tracer.begin("c")
        tracer.end(child)
        tracer.end(root)
        assert tracer.detach(None) is False
        assert tracer.detach(child) is False
        assert tracer.detach(Span("other", 0)) is False
        assert tracer.n_spans == 2

    def test_detach_lets_a_long_running_server_reuse_budget(self):
        tracer = Tracer(max_spans=2)
        for _ in range(10):
            root = tracer.begin("req")
            tracer.end(root)
            assert root is not None
            assert tracer.detach(root) is True
        assert tracer.dropped == 0


class TestHistogramExemplars:
    def test_exemplars_ring_and_max(self):
        h = Histogram("server.request_ms")
        h.observe(99.0, exemplar="tmax")
        for i in range(6):
            h.observe(float(i), exemplar=f"t{i}")
        h.observe(1.0, exemplar="tlast")  # tmax now aged out of the ring
        ex = h.exemplars()
        ids = [e["trace_id"] for e in ex]
        assert "tlast" in ids
        maxes = [e for e in ex if e.get("max")]
        assert len(maxes) == 1
        assert maxes[0]["trace_id"] == "tmax"
        assert maxes[0]["value"] == 99.0
        assert len([e for e in ex if not e.get("max")]) \
            <= Histogram.EXEMPLAR_SLOTS

    def test_snapshot_shape_unchanged_without_exemplars(self):
        h = Histogram("plain")
        h.observe(1.0)
        assert "exemplars" not in h.snapshot()

    def test_registry_passthrough(self):
        reg = MetricsRegistry()
        reg.observe("lat_ms", 5.0, exemplar="abc")
        snap = reg.snapshot()["lat_ms"]
        assert snap["exemplars"][0]["trace_id"] == "abc"
