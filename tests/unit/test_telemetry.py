"""Unit tests for the production telemetry pipeline (PR 5).

Covers the thread-safe obs core (8-worker counter parity with a
sequential run, cross-thread Chrome-trace validity), the query audit
log (schema, nesting, sampling determinism, slow-query force-log), the
time-series snapshotter (ring eviction, windowed rate/quantile math),
the OpenMetrics exporter and its validating parser, and the HTTP serve
surface on an ephemeral port.
"""

import io
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.obs import events
from repro.obs.export import (
    OpenMetricsError,
    metric_name,
    parse_openmetrics,
    render_openmetrics,
)
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    bucket_upper_bound,
    quantile_from_buckets,
)
from repro.obs.serve import ObsServer
from repro.obs.snapshot import Snapshotter
from repro.perf import QueryCache, execute_batch
from repro.resilience.guard import QueryGuard
from repro.resilience.run import run_query_guarded
from repro.xmldb.store import XMLStore


def make_store(n_docs: int = 3) -> XMLStore:
    store = XMLStore()
    for d in range(n_docs):
        store.load(
            f"doc{d}.xml",
            f"<article><t>alpha beta doc{d}</t>"
            f"<sec>alpha gamma</sec><sec>beta alpha beta</sec></article>",
        )
    return store


def query_for(doc: int) -> str:
    return (
        f'For $x in document("doc{doc}.xml")'
        "//article/descendant-or-self::* "
        'Score $x using ScoreFooExact($x, {"alpha"}, {"beta"}) '
        "Return $x Sortby(score)"
    )


# ----------------------------------------------------------------------
# Thread-safe obs core
# ----------------------------------------------------------------------

class TestConcurrentMetrics:
    """The tentpole concurrency regression: one collector driven by an
    8-worker batch must land *identical* counter totals to the same
    batch run sequentially, and its trace must stay well-formed."""

    N_REPEAT = 4

    def _run_batch(self, workers: int):
        store = make_store(4)
        sources = [query_for(d % 4) for d in range(4 * self.N_REPEAT)]
        with obs.collecting() as col:
            result = execute_batch(store, sources, max_workers=workers)
        assert result.n_failed == 0
        return col

    def test_8_worker_counters_equal_sequential(self):
        seq = self._run_batch(workers=1)
        par = self._run_batch(workers=8)
        seq_counters = {
            n: m.value for n, m in seq.metrics.items()
            if hasattr(m, "inc")
        }
        par_counters = {
            n: m.value for n, m in par.metrics.items()
            if hasattr(m, "inc")
        }
        assert seq_counters == par_counters
        assert seq_counters["batch.queries"] == 4 * self.N_REPEAT

    def test_concurrent_histogram_observation_count(self):
        hist = Histogram("h")
        n, per = 8, 2000

        def work():
            for i in range(per):
                hist.observe(float(i % 50))

        threads = [threading.Thread(target=work) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert hist.count == n * per
        zero, buckets = hist.bucket_counts()
        assert zero + sum(buckets.values()) == n * per

    def test_chrome_trace_valid_across_threads(self):
        col = self._run_batch(workers=8)
        trace = col.tracer.to_chrome_trace()
        assert trace["traceEvents"], "batch produced no spans"
        tids = set()
        for ev in trace["traceEvents"]:
            assert ev["ph"] == "X"
            assert ev["dur"] >= 0, f"negative duration in {ev['name']}"
            assert ev["ts"] >= 0
            tids.add(ev["tid"])
        # compacted tids are small and stable
        assert tids == set(range(len(tids)))

    def test_span_children_stay_on_their_thread(self):
        col = self._run_batch(workers=8)

        def check(span):
            for child in span.children:
                assert child.tid == span.tid, (
                    f"span {child.name!r} adopted across threads"
                )
                assert child.start_ns >= span.start_ns
                check(child)

        for root in col.tracer.roots:
            check(root)

    def test_end_on_wrong_thread_raises(self):
        t = obs.Tracer()
        span = t.begin("outer")
        err = []

        def other():
            try:
                t.end(span)
            except ValueError as exc:
                err.append(exc)

        th = threading.Thread(target=other)
        th.start()
        th.join()
        assert err and "not open on this thread" in str(err[0])
        t.end(span)  # still closable on the owning thread


# ----------------------------------------------------------------------
# Audit log
# ----------------------------------------------------------------------

class TestAuditLogSchema:
    def _one_record(self, **sink_kwargs):
        store = make_store(1)
        buf = io.StringIO()
        with events.logging_queries(buf, **sink_kwargs):
            run_query_guarded(store, query_for(0),
                              QueryGuard(max_rows=100, degrade=True))
        lines = buf.getvalue().splitlines()
        assert len(lines) == 1
        return json.loads(lines[0])

    def test_versioned_fields(self):
        r = self._one_record()
        assert r["v"] == events.SCHEMA_VERSION == 3
        for field in ("ts", "kind", "query_sha256", "outcome",
                      "wall_ms", "rows", "truncated", "reason",
                      "error_type", "cache", "plan_cache", "guard",
                      "ops", "slow", "trace_id"):
            assert field in r, f"missing field {field}"
        # Untraced local execution: the v3 trace_id field is present
        # but empty (the query server fills it per request).
        assert r["trace_id"] == ""
        assert r["kind"] == "query"
        assert r["outcome"] == "ok"
        assert r["rows"] > 0
        assert r["query_sha256"] == events.query_hash(query_for(0))
        assert len(r["query_sha256"]) == 16
        assert query_for(0) not in json.dumps(r), \
            "query text must never be logged"
        assert r["guard"] == {
            "active": True, "degraded": True, "trip": "",
        }
        # compilable query → top operators attached, with the v2
        # estimator columns populated (compiled plans are annotated)
        assert r["ops"] and all(
            set(op) == {"operator", "rows", "est_rows", "q_error",
                        "time_ms"}
            for op in r["ops"]
        )
        assert all(op["est_rows"] is not None and op["q_error"] >= 1.0
                   for op in r["ops"])

    def test_error_outcome(self):
        store = make_store(1)
        buf = io.StringIO()
        with events.logging_queries(buf):
            with pytest.raises(Exception):
                run_query_guarded(store, "not a query (",
                                  QueryGuard(degrade=True))
        r = json.loads(buf.getvalue().splitlines()[0])
        assert r["outcome"] == "error"
        assert r["error_type"] == "QuerySyntaxError"

    def test_nested_entry_points_emit_one_record(self):
        """batch → cache → guarded run is ONE query: one record, with
        the inner layers' annotations folded in."""
        store = make_store(2)
        buf = io.StringIO()
        cache = QueryCache(store)
        with events.logging_queries(buf):
            execute_batch(store, [query_for(0), query_for(1),
                                  query_for(0)],
                          max_workers=2, max_rows=100, cache=cache)
        records = [json.loads(x) for x in buf.getvalue().splitlines()]
        assert len(records) == 3
        assert all(r["kind"] == "batch" for r in records)
        by_hash = {}
        for r in records:
            by_hash.setdefault(r["query_sha256"], []).append(r)
        dup = by_hash[events.query_hash(query_for(0))]
        assert len(dup) == 2
        assert sorted(r["cache"] for r in dup) == ["hit", "miss"]

    def test_no_sink_yields_null_observation(self):
        assert not events.SINK.enabled
        cm = events.observe_query("whatever")
        with cm as ev:
            assert ev is None
            assert events.current_event() is None


class TestAuditLogSampling:
    def _emit_n(self, sink, n, wall_ms=1.0):
        for i in range(n):
            ev = events.QueryEvent(f"q{i}")
            ev.end_ns = ev.start_ns + int(wall_ms * 1e6)
            sink.emit(ev)

    def test_sampling_deterministic_under_seed(self):
        decisions = []
        for _ in range(2):
            buf = io.StringIO()
            sink = events.JsonlSink(buf, sample_rate=0.3, seed=42)
            self._emit_n(sink, 200)
            kept = {json.loads(x)["query_sha256"]
                    for x in buf.getvalue().splitlines()}
            decisions.append(kept)
            assert sink.emitted + sink.sampled_out == 200
            assert 0 < sink.emitted < 200
        assert decisions[0] == decisions[1]

    def test_sampling_decisions_independent_of_latency(self):
        """One RNG draw per event whether slow or not: flipping some
        events to slow must not change which *other* events survive."""
        base, mixed = [], []
        for flip_slow in (False, True):
            buf = io.StringIO()
            sink = events.JsonlSink(buf, sample_rate=0.3, seed=7,
                                    slow_ms=100.0)
            for i in range(100):
                ev = events.QueryEvent(f"q{i}")
                wall_ms = 500.0 if (flip_slow and i % 10 == 0) else 1.0
                ev.end_ns = ev.start_ns + int(wall_ms * 1e6)
                sink.emit(ev)
            kept = {json.loads(x)["query_sha256"]
                    for x in buf.getvalue().splitlines()}
            (mixed if flip_slow else base).append(kept)
        # the untouched (never-slow) events must keep identical
        # sampling decisions whether or not other events were slow
        untouched = {events.query_hash(f"q{i}")
                     for i in range(100) if i % 10 != 0}
        assert base[0] & untouched == mixed[0] & untouched

    def test_slow_queries_survive_sampling(self):
        buf = io.StringIO()
        sink = events.JsonlSink(buf, sample_rate=0.0, seed=1,
                                slow_ms=10.0)
        self._emit_n(sink, 50, wall_ms=1.0)    # all sampled out
        self._emit_n(sink, 5, wall_ms=50.0)    # all force-logged
        records = [json.loads(x) for x in buf.getvalue().splitlines()]
        assert len(records) == 5
        assert all(r["slow"] for r in records)
        assert sink.slow_forced == 5
        assert sink.sampled_out == 50

    def test_sample_rate_validated(self):
        with pytest.raises(ValueError):
            events.JsonlSink(io.StringIO(), sample_rate=1.5)

    def test_iter_and_filter_events(self):
        buf = io.StringIO()
        sink = events.JsonlSink(buf, slow_ms=10.0)
        self._emit_n(sink, 3, wall_ms=1.0)
        self._emit_n(sink, 2, wall_ms=20.0)
        records = list(events.iter_events(
            io.StringIO(buf.getvalue())
        ))
        assert len(records) == 5
        assert len(list(events.filter_events(records,
                                             slow_only=True))) == 2
        assert len(list(events.filter_events(records,
                                             min_wall_ms=10.0))) == 2
        with pytest.raises(ValueError, match="line 1"):
            list(events.iter_events(["not json"]))


# ----------------------------------------------------------------------
# Snapshotter
# ----------------------------------------------------------------------

class TestSnapshotter:
    def test_ring_eviction(self):
        reg = MetricsRegistry()
        snap = Snapshotter(reg, capacity=4)
        for _ in range(10):
            snap.tick()
        assert len(snap) == 4
        assert snap.stats()["ticks"] == 10

    def test_rate_and_delta_over_window(self):
        reg = MetricsRegistry()
        now = [0.0]
        snap = Snapshotter(reg, capacity=100, clock=lambda: now[0])
        reg.count("q", 10)
        snap.tick()
        now[0] = 10.0
        reg.count("q", 40)
        snap.tick()
        assert snap.delta("q", 60.0) == 40.0
        assert snap.rate("q", 60.0) == pytest.approx(4.0)
        # the window selects the oldest snapshot *inside* it
        now[0] = 15.0
        reg.count("q", 5)
        snap.tick()
        assert snap.delta("q", 6.0) == 5.0      # only the last interval
        assert snap.delta("q", 60.0) == 45.0    # the whole history

    def test_insufficient_ticks_return_zero(self):
        reg = MetricsRegistry()
        snap = Snapshotter(reg, capacity=10)
        assert snap.rate("q", 60.0) == 0.0
        snap.tick()
        assert snap.rate("q", 60.0) == 0.0
        assert snap.quantile_over("h", 0.5, 60.0) == 0.0

    def test_hit_rate(self):
        reg = MetricsRegistry()
        now = [0.0]
        snap = Snapshotter(reg, capacity=10, clock=lambda: now[0])
        snap.tick()
        reg.count("hits", 30)
        reg.count("misses", 10)
        now[0] = 1.0
        snap.tick()
        assert snap.hit_rate("hits", "misses", 60.0) == \
            pytest.approx(0.75)
        assert snap.hit_rate("absent", "gone", 60.0) == 0.0

    def test_windowed_quantile_ages_out_old_spikes(self):
        reg = MetricsRegistry()
        now = [0.0]
        snap = Snapshotter(reg, capacity=10, clock=lambda: now[0])
        for _ in range(100):
            reg.observe("lat", 1000.0)          # old spike
        snap.tick()
        now[0] = 50.0
        for _ in range(100):
            reg.observe("lat", 2.0)             # recent traffic
        snap.tick()
        recent = snap.quantile_over("lat", 0.9, 60.0)
        lifetime = reg.histogram("lat").quantile(0.9)
        assert recent == pytest.approx(2.0, rel=0.15)
        assert lifetime > 100.0                 # spike still dominates

    def test_quantile_from_buckets_matches_histogram(self):
        hist = Histogram("h")
        for v in [1.0, 2.0, 4.0, 8.0, 16.0]:
            hist.observe(v)
        zero, buckets = hist.bucket_counts()
        est = quantile_from_buckets(zero, buckets, 0.5)
        # same bucket the histogram's own estimator picks, minus the
        # min/max clamp: within half a bucket of the true median
        assert est == pytest.approx(4.0, rel=0.2)

    def test_background_thread_ticks(self):
        reg = MetricsRegistry()
        with Snapshotter(reg, interval_s=0.02, capacity=50) as snap:
            deadline = time.time() + 2.0
            while len(snap) < 3 and time.time() < deadline:
                time.sleep(0.01)
        assert len(snap) >= 3
        assert snap._thread is None  # stopped cleanly

    def test_tick_emits_metric_when_collecting(self):
        reg = MetricsRegistry()
        snap = Snapshotter(reg, capacity=5)
        with obs.collecting() as col:
            snap.tick()
        assert col.metrics.counter("obs.snapshot.ticks").value == 1

    def test_constructor_validation(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            Snapshotter(reg, interval_s=0.0)
        with pytest.raises(ValueError):
            Snapshotter(reg, capacity=1)


# ----------------------------------------------------------------------
# OpenMetrics exporter
# ----------------------------------------------------------------------

class TestOpenMetrics:
    def make_registry(self):
        reg = MetricsRegistry()
        reg.count("cache.plan.hits", 7)
        reg.set_gauge("index.n_terms", 123)
        for v in [0.0, 0.5, 2.0, 100.0, 100.0]:
            reg.observe("batch.query_ms", v)
        return reg

    def test_render_parse_roundtrip(self):
        text = render_openmetrics(self.make_registry())
        fams = parse_openmetrics(text)
        assert set(fams) == {
            "tix_cache_plan_hits", "tix_index_n_terms",
            "tix_batch_query_ms",
        }
        assert fams["tix_cache_plan_hits"]["type"] == "counter"
        (name, labels, value), = fams["tix_cache_plan_hits"]["samples"]
        assert name == "tix_cache_plan_hits_total" and value == 7
        assert fams["tix_index_n_terms"]["samples"][0][2] == 123
        hist = fams["tix_batch_query_ms"]
        assert hist["type"] == "histogram"
        count = [s for s in hist["samples"]
                 if s[0] == "tix_batch_query_ms_count"][0]
        assert count[2] == 5
        # catalog help text flows into # HELP
        assert "plan-tier hits" in str(
            fams["tix_cache_plan_hits"]["help"]
        )

    def test_histogram_buckets_cumulative_and_bounded(self):
        text = render_openmetrics(self.make_registry())
        fams = parse_openmetrics(text)  # parser enforces monotonicity
        buckets = [s for s in fams["tix_batch_query_ms"]["samples"]
                   if s[0] == "tix_batch_query_ms_bucket"]
        assert buckets[0][1]["le"] == "0.0" and buckets[0][2] == 1
        assert buckets[-1][1]["le"] == "+Inf" and buckets[-1][2] == 5
        # every finite le is a real geometric bucket bound
        for _, labels, _ in buckets[1:-1]:
            le = float(labels["le"])
            assert any(
                abs(le - bucket_upper_bound(i)) < 1e-9
                for i in range(-40, 40)
            )

    def test_empty_registry_renders_eof_only(self):
        text = render_openmetrics(MetricsRegistry())
        assert text == "# EOF\n"
        assert parse_openmetrics(text) == {}

    def test_metric_name_mapping(self):
        assert metric_name("cache.plan.hits") == "tix_cache_plan_hits"
        assert metric_name("a.b", prefix="x_") == "x_a_b"

    @pytest.mark.parametrize("bad,msg", [
        ("tix_x_total 1\n", "EOF"),
        ("tix_x_total 1\n# EOF", "outside its family"),
        ("# TYPE tix_x counter\ntix_x 1\n# EOF", "lacks _total"),
        ("# TYPE tix_x gauge\ntix_x_total 1\n# EOF", "has a suffix"),
        ("# TYPE tix_x wat\n# EOF", "unknown type"),
        ("# TYPE tix_x counter\ntix_x_total nan-ish\n# EOF",
         "bad sample value"),
    ])
    def test_parser_rejects_malformed(self, bad, msg):
        with pytest.raises(OpenMetricsError, match=msg):
            parse_openmetrics(bad)

    def test_parser_rejects_noncumulative_histogram(self):
        bad = "\n".join([
            "# TYPE tix_h histogram",
            'tix_h_bucket{le="1.0"} 5',
            'tix_h_bucket{le="2.0"} 3',   # decreasing!
            'tix_h_bucket{le="+Inf"} 5',
            "tix_h_count 5",
            "tix_h_sum 9.0",
            "# EOF",
        ])
        with pytest.raises(OpenMetricsError, match="cumulative"):
            parse_openmetrics(bad)


# ----------------------------------------------------------------------
# HTTP serve surface
# ----------------------------------------------------------------------

class TestObsServer:
    def test_endpoints(self):
        col = obs.Collector()
        obs.install(col)
        try:
            col.metrics.count("batch.queries", 3)
            snap = Snapshotter(col.metrics, capacity=5)
            snap.tick()
            snap.tick()
            with ObsServer(col.metrics, snapshotter=snap) as srv:
                base = srv.url
                assert srv.port > 0
                body = urllib.request.urlopen(
                    base + "/healthz", timeout=5).read()
                assert body == b"ok\n"
                text = urllib.request.urlopen(
                    base + "/metrics", timeout=5).read().decode()
                fams = parse_openmetrics(text)
                assert fams["tix_batch_queries"]["samples"][0][2] == 3
                varz = json.loads(urllib.request.urlopen(
                    base + "/varz", timeout=5).read().decode())
                assert "metrics" in varz and "uptime_s" in varz
                assert set(varz["snapshot"]["windows"]) == {"1m", "5m"}
                # the server observes itself: next scrape sees the
                # serve.* metrics of the previous requests
                text2 = urllib.request.urlopen(
                    base + "/metrics", timeout=5).read().decode()
                fams2 = parse_openmetrics(text2)
                assert "tix_serve_requests_metrics" in fams2
                assert "tix_serve_request_ms" in fams2
                with pytest.raises(urllib.error.HTTPError) as exc:
                    urllib.request.urlopen(base + "/nope", timeout=5)
                assert exc.value.code == 404
        finally:
            obs.uninstall()


class TestObsServerShutdown:
    """Regression tests for the draining stop(): a stalled client must
    not hang shutdown (ThreadingMixIn's unbounded handler join), and an
    in-flight scrape must complete before the socket teardown."""

    def test_stop_bounded_with_stalled_client(self):
        import socket

        col = obs.Collector()
        srv = ObsServer(col.metrics)
        srv.start()
        # a slowloris peer: connects, sends half a request line, stalls
        stall = socket.create_connection(("127.0.0.1", srv.port),
                                         timeout=5.0)
        stall.sendall(b"GET /met")
        time.sleep(0.1)  # let the handler thread block in recv
        t0 = time.monotonic()
        srv.stop(timeout=1.0)
        elapsed = time.monotonic() - t0
        stall.close()
        # without the bounded drain this join never returns (the
        # handler sits in a 30 s socket read)
        assert elapsed < 5.0

    def test_stop_drains_inflight_scrape(self, monkeypatch):
        col = obs.Collector()
        col.metrics.count("batch.queries", 1)
        srv = ObsServer(col.metrics)
        slow = threading.Event()

        def slow_varz():
            slow.set()
            time.sleep(0.3)
            return {"uptime_s": 0.0, "metrics": {}}

        monkeypatch.setattr(srv, "varz", slow_varz)
        srv.start()
        got = []

        def scrape():
            body = urllib.request.urlopen(
                srv.url + "/varz", timeout=10).read()
            got.append(json.loads(body.decode()))

        th = threading.Thread(target=scrape)
        th.start()
        assert slow.wait(5.0)  # the scrape is now in flight
        srv.stop(timeout=5.0)
        th.join(5.0)
        # the in-flight response completed despite the shutdown
        assert got and "metrics" in got[0]

    def test_stop_idempotent_after_drain(self):
        col = obs.Collector()
        srv = ObsServer(col.metrics)
        srv.start()
        body = urllib.request.urlopen(
            srv.url + "/healthz", timeout=5).read()
        assert body == b"ok\n"
        srv.stop()
        srv.stop()  # second stop must not raise


# ----------------------------------------------------------------------
# Disabled-path overhead (extends the zero-overhead contract to the
# event log and snapshotter; see test_explain_analyze's TermJoin test)
# ----------------------------------------------------------------------

class TestDisabledTelemetryOverhead:
    """With the null recorder installed and no audit sink, the
    telemetry hooks a query crosses (observe_query enter/exit plus the
    current_event annotation probes) must cost under 5% of a
    Table-1-shaped guarded query; an idle (never-started) snapshotter
    must not add anything at all to the query path."""

    N_HOOK_ITERS = 2000

    def _hook_cost_per_query(self) -> float:
        """Seconds of pure disabled-path hook work one query pays:
        one observe_query context + the annotation probes the wired
        entry points make (guard, plan, caches, result)."""
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(self.N_HOOK_ITERS):
                with events.observe_query("q") as ev:
                    assert ev is None
                    for _ in range(6):
                        events.current_event()
            best = min(best, time.perf_counter() - t0)
        return best / self.N_HOOK_ITERS

    def test_disabled_hooks_under_five_percent(self):
        assert not obs.RECORDER.enabled
        assert not events.SINK.enabled
        store = make_store(4)
        source = query_for(0)
        guard_kwargs = dict(max_rows=10_000, degrade=True)
        run_query_guarded(store, source,
                          QueryGuard(**guard_kwargs))  # warm up

        def best_query_time(reps=5):
            best = float("inf")
            for _ in range(reps):
                t0 = time.perf_counter()
                run_query_guarded(store, source,
                                  QueryGuard(**guard_kwargs))
                best = min(best, time.perf_counter() - t0)
            return best

        # Accept the first attempt under the bound (timing comparisons
        # are noisy; mirrors TestDisabledOverhead's retry pattern).
        ratios = []
        for _ in range(5):
            ratio = self._hook_cost_per_query() / best_query_time()
            ratios.append(ratio)
            if ratio < 0.05:
                return
        pytest.fail(
            "disabled telemetry hooks >= 5% of a guarded query in "
            "every attempt: " + ", ".join(f"{r:.4f}" for r in ratios)
        )

    def test_idle_snapshotter_touches_nothing_on_query_path(self):
        """A constructed-but-not-started snapshotter takes no locks and
        samples nothing unless ticked — the query path never sees it."""
        reg = MetricsRegistry()
        snap = Snapshotter(reg, interval_s=60.0, capacity=10)
        store = make_store(1)
        run_query_guarded(store, query_for(0),
                          QueryGuard(max_rows=100, degrade=True))
        assert len(snap) == 0
        assert snap.stats()["ticks"] == 0
        assert snap._thread is None
