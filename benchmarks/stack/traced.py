"""The traced run: per-layer numbers for each workload.

End-to-end metrics are measured with tracing off (``workloads.py``).
This pass replays a seeded sample of the same operations in-process on
one thread, stage by stage, with the harness's own span recorder around
every call into a layer's public functions.  The same sample also runs
untraced, under an ``obs.Collector`` and under the server's guard, all
interleaved operation by operation (``measure.interleaved``) so that
their walls can be compared.  That is one *round*; rounds repeat while
they fit in ``--seconds``.  Timings are per-round medians; exact
counters must repeat from round to round.
"""

from __future__ import annotations

import gc
import json
import os
import random
import queue
import socket
import threading
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import inputs
import measure
import served
import workloads
from inputs import Query, Sizes
from measure import SpanRecorder
from workloads import Outcome

from repro import obs
from repro.access import Comp1, Comp2, Comp3, PhraseJoin, TermJoin
from repro.core.scoring import WeightedCountScorer
from repro.engine.base import execute, plan_stats
from repro.errors import QueryCompileError
from repro.index.compress import decode_postings, encode_postings
from repro.joins.meet import generalized_meet
from repro.perf import QueryCache
from repro.plan import rules as plan_rules
from repro.plan.optimizer import choose_plan, make_selection
from repro.query import compile_query, evaluate_query, parse_query
from repro.resilience import (
    CancellationToken, NullGuard, QueryGuard, evaluate_guarded,
    execute_guarded,
)
from repro.server import QueryServer, read_frame, write_frame
from repro.server.protocol import ok_response
from repro.xmldb import XMLStore
from repro.xmldb.persist import load_store, save_store

#: Baselines (Comp1, Comp2, Generalized Meet) run on the Table-1 rows up
#: to this frequency: Comp1 alone needs 2 s at 10,000.
BASELINE_MAX_FREQUENCY = 3000
#: Gated writes replayed by the traced ``ingest_update``.
TRACED_UPDATES = 10

#: ``QueryCache``'s default plan-cache capacity, as ``tix serve`` uses.
PLAN_CACHE_ENTRIES = 128

#: Spans the trace file keeps but BENCHMARK.json does not declare.
HELPER_SPANS = {"perf.probe_miss_s", "perf.store_s", "server.update_s"}

#: Engine operator name → the ``engine.*_self_s`` metric it feeds.
OPERATOR_LAYER = {
    "termjoin-scan": "scan", "structural-filter": "filter",
    "sort": "rank", "limit": "rank", "top-k": "rank",
    "materialize": "materialize",
}


class Round:
    """What one round measured."""

    def __init__(self) -> None:
        self.timings: Dict[str, float] = {}   # medians are taken of these
        self.exact: Dict[str, float] = {}     # must repeat bit for bit
        self.spans: List[measure.Span] = []


def run_rounds(one_round: Callable[[], Round], seconds: float,
               out: Outcome) -> Round:
    """Repeat ``one_round`` while another fits in ``seconds``; fold the
    rounds into one (median timings, checked-equal counters).

    The set-up heap is frozen first.  The corpora and indexes are
    hundreds of megabytes of objects that are never freed; with them in
    the collector's youngest-to-oldest scan every full collection costs
    0.4 s, fires after a fixed number of allocations, and so lands on
    whichever side of a comparison happens to be running: identical
    sides then differ by 20% to 60%.  Frozen, collections still run and
    still free the garbage the measured work makes, in about 1 ms.  The
    end-to-end workloads do not do this: there, users pay those pauses.
    """
    gc.collect()
    gc.freeze()
    t0 = perf_counter()
    rounds: List[Round] = []
    while True:
        r0 = perf_counter()
        rounds.append(one_round())
        if perf_counter() - t0 + (perf_counter() - r0) > seconds:
            break
    merged = rounds[-1]
    for name in merged.timings:
        merged.timings[name] = measure.median(
            [r.timings[name] for r in rounds])
    for r in rounds[:-1]:
        out.check(r.exact == merged.exact,
                  "exact counters differ between rounds: " + ", ".join(
                      k for k in merged.exact
                      if r.exact.get(k) != merged.exact[k]))
    out.info["rounds"] = len(rounds)
    return merged


def layer_timings(spans: Sequence[measure.Span]) -> Dict[str, float]:
    """``<span name>_s`` → busy seconds, for every span name."""
    return {f"{name}_s": t
            for name, t in measure.self_times(spans).items()}


def index_counts(col: obs.Collector) -> Dict[str, float]:
    """The exact ``index.*`` counters the program published to ``col``."""
    out = {}
    for name in ("index.posting_fetches", "index.postings_returned",
                 "index.bytes_read"):
        metric = col.metrics.get(name)
        out[name] = metric.value if metric is not None else 0
    return out


def under(col: obs.Collector, call: Callable[[], Any]) -> Any:
    """Run ``call`` with ``col`` installed as the program's recorder."""
    obs.install(col)
    try:
        return call()
    finally:
        obs.uninstall()


def record_null(out: Outcome, times: Dict[str, List[float]]) -> None:
    """Record the null control (``null`` vs ``plain``, identical sides)
    as ``info.null_overhead_share``: no overhead share of the run is
    better resolved than this reads.  Four quiet full-size runs gave
    -3.3% .. +2.0% (sequential passes, which interleaving replaced,
    13% .. 90%).  It is reported, not checked: one 100 ms scheduling
    hiccup on one side of a 2 s pass is 5%, and a traced run must not
    fail for what the host did."""
    out.info.setdefault("null_overhead_share", []).append(
        measure.overhead_share(times, "null", "plain"))


def counted(stores: Sequence[XMLStore], totals: Dict[str, float],
            call: Callable[[], Any]) -> Any:
    """Run ``call`` and add what it alone did to the stores' access
    counters into ``totals`` (the sides of an interleaved pass share the
    stores, so the counters cannot simply be reset and read)."""
    before = [store.counters.snapshot() for store in stores]
    result = call()
    for store, was in zip(stores, before):
        for name, value in store.counters.snapshot().items():
            key = f"xmldb.{name}"
            totals[key] = totals.get(key, 0) + value - was[name]
    return result


def timed_build(rec: SpanRecorder, store: XMLStore) -> None:
    """The three lazy builds, one span each."""
    with rec.span("index.build"):
        store.index
    with rec.span("index.structure_build"):
        store.structure
    with rec.span("xmldb.stats_build"):
        store.stats


def compressed_fetch(rec: SpanRecorder,
                     blobs: Sequence[bytes]) -> None:
    with rec.span("index.compressed_fetch"):
        for blob in blobs:
            decode_postings(blob)


def compress_terms(pairs) -> Tuple[List[bytes], float]:
    """Varint blobs of the posting lists the sample fetches, and their
    bytes per posting."""
    blobs, n_postings = [], 0
    for store, term in pairs:
        postings = store.index.postings(term).postings
        n_postings += len(postings)
        blobs.append(encode_postings(postings))
    n_bytes = sum(len(b) for b in blobs)
    return blobs, (n_bytes / n_postings if n_postings else 0.0)


def finish(out: Outcome, workload: str, seed: int, setup: SpanRecorder,
           merged: Round, out_dir: str) -> Outcome:
    """Metrics from the set-up spans and the merged round; the spans go
    to ``trace_<workload>.json``."""
    m = out.metrics
    m.update(layer_timings(setup.spans))
    m.update(merged.timings)
    m.update(merged.exact)
    traced_wall = m.pop("traced_wall_s")
    plain_wall = m.pop("plain_wall_s")
    m["bench.trace_overhead_share"] = traced_wall / plain_wall - 1.0
    harness = m.pop("bench.op_s", 0.0)
    out.info["traced_wall_s"] = traced_wall
    out.info["untraced_gap_share"] = harness / traced_wall
    for name in HELPER_SPANS & set(m):
        out.info[name] = m.pop(name)
    m["failed_share"] = len(out.failures) / max(1, out.attempted)
    out.info["exact"] = sorted(merged.exact)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace_{workload}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"workload": workload, "seed": seed,
                   "setup_spans": [s.to_dict() for s in setup.spans],
                   "spans": [s.to_dict() for s in merged.spans]}, f)
    return out


# ----------------------------------------------------------------------
# paper_sweep
# ----------------------------------------------------------------------

def sweep_op(op: workloads.PaperOp, i: int, rec: SpanRecorder) -> Any:
    """One operation of the sweep, stage by stage: each term's postings
    standalone, then the access method."""
    with rec.span("bench.op", op=i):
        for term in op.terms:
            with rec.span("index.fetch"):
                op.store.index.postings(term)
        with rec.span(op.span):
            return op.call()


def baselines_pass(pi: inputs.PaperInputs, rec: SpanRecorder,
                   first_op: int) -> None:
    """The paper's rivals, so its TermJoin-vs-composite ordering stays
    visible: Comp1, Comp2 and Generalized Meet on Table 1 (simple
    scoring), Comp3 on Table 5."""
    i = first_op
    for row in pi.rows1:
        if row.label > BASELINE_MAX_FREQUENCY:
            continue
        terms = list(row.terms)
        scorer = workloads.simple_scorer(terms)
        with rec.span("bench.op", op=i):
            with rec.span("access.comp1.busy"):
                Comp1(pi.store123, scorer).run(terms)
            with rec.span("access.comp2.busy"):
                Comp2(pi.store123, scorer).run(terms)
            with rec.span("joins.meet.busy"):
                generalized_meet(pi.store123, terms, scorer)
        i += 1
    comp3 = Comp3(pi.store5)
    for row in pi.rows5:
        with rec.span("bench.op", op=i):
            with rec.span("access.comp3.busy"):
                comp3.run(list(row.terms))
        i += 1


def access_counts(ops: Sequence[workloads.PaperOp]) -> Dict[str, float]:
    """Exact work counters from each method's ``last_stats``."""
    total = {"access.termjoin.postings_scanned": 0,
             "access.termjoin.stack_pushes": 0,
             "access.phrasefinder.offset_comparisons": 0,
             "access.pick.candidates_considered": 0}
    occurrences = 0
    for op in ops:
        stats = op.method.last_stats
        if op.span == "access.termjoin.busy":
            total["access.termjoin.postings_scanned"] += \
                stats["postings_scanned"]
            total["access.termjoin.stack_pushes"] += stats["stack_pushes"]
        elif op.span == "access.phrasefinder.busy":
            total["access.phrasefinder.offset_comparisons"] += \
                stats["offset_comparisons"]
            occurrences += stats["phrase_occurrences"]
        elif op.span == "access.pick.busy":
            total["access.pick.candidates_considered"] += \
                stats["candidates_considered"]
    compared = total["access.phrasefinder.offset_comparisons"]
    total["access.phrasefinder.useful_share"] = (
        occurrences / compared if compared else 0.0)
    return total


def trace_paper_sweep(seed: int, sizes: Sizes, seconds: float,
                      workdir: str, out_dir: str) -> Outcome:
    out = Outcome()
    setup = SpanRecorder()
    with setup.span("workload.generate"):
        pi = inputs.paper_inputs(seed, sizes)
    stores = (pi.store123, pi.store4, pi.store5)
    for store in stores:
        with setup.span("index.build"):
            store.index
        with setup.span("index.structure_build"):
            store.structure
    workloads.check_paper_answers(out, pi)
    ops = workloads.sweep_ops(pi)
    blobs, bytes_per_posting = compress_terms(dict.fromkeys(
        (op.store, t) for op in ops for t in op.terms))

    def one_round() -> Round:
        r = Round()
        rec, quiet = SpanRecorder(), SpanRecorder(enabled=False)
        col = obs.Collector()
        counts: Dict[str, float] = {}

        def plain_side(i: int, op: workloads.PaperOp) -> None:
            sweep_op(op, i, quiet)

        def traced_side(i: int, op: workloads.PaperOp) -> None:
            result = counted(stores, counts, lambda: sweep_op(op, i, rec))
            out.check(op.size(result) > 0, f"{op.label}: empty result")

        def collected_side(i: int, op: workloads.PaperOp) -> None:
            under(col, lambda: sweep_op(op, i, quiet))

        cpu0 = measure.cpu_seconds()
        t0 = perf_counter()
        times = measure.interleaved(ops, {
            "plain": plain_side, "null": plain_side,
            "traced": traced_side, "obs": collected_side})
        wall = perf_counter() - t0
        cpu = measure.cpu_seconds() - cpu0
        record_null(out, times)
        r.exact.update(counts)
        r.exact.update(access_counts(ops))
        r.exact.update(index_counts(col))
        # The paper's rivals and the compressed lists have spans of their
        # own, outside the walls the overheads are taken from.
        baselines_pass(pi, rec, len(ops))
        compressed_fetch(rec, blobs)
        r.spans = rec.spans
        r.timings = layer_timings(rec.spans)
        r.timings.update({
            "plain_wall_s": sum(times["plain"]),
            "traced_wall_s": sum(times["traced"]),
            "obs.recorder_overhead_share":
                measure.overhead_share(times, "obs", "plain"),
            "bench.client_cpu_share": cpu / wall,
        })
        return r

    merged = run_rounds(one_round, seconds, out)
    merged.exact["index.compressed_bytes_per_posting"] = bytes_per_posting
    return finish(out, "paper_sweep", seed, setup, merged, out_dir)


# ----------------------------------------------------------------------
# served_unique / served_repeat / ingest_update: one query, stage by stage
# ----------------------------------------------------------------------

def scorer_of(q: Query) -> WeightedCountScorer:
    """The scorer ``ScoreFooExact`` compiles to for ``q``."""
    return WeightedCountScorer(primary=list(q.primary),
                               secondary=list(q.secondary), stem=False)


def words_of(q: Query) -> List[str]:
    return [w for item in q.primary + q.secondary for w in item.split()]


def row_payload(trees: Sequence[Any]) -> List[Dict[str, Any]]:
    """Result rows as the server puts them on the wire."""
    return [{"score": getattr(t, "score", None), "xml": t.to_xml()}
            for t in trees]


def answer_query(cache: QueryCache, store: XMLStore, q: Query,
                 guard: NullGuard):
    """``QueryCache.run_query_guarded``'s dispatch from its public
    parts, keeping the plan so its ``plan_stats`` can be read.
    Returns ``(result trees, plan or None)``."""
    norm = cache.normalize(q.text)
    cached = cache.results.get(norm)
    if cached is not None:
        return cached, None
    plan = cache.plans.acquire(norm)
    if plan is not None:
        try:
            res = execute_guarded(plan, guard)
        finally:
            cache.plans.release(norm, plan)
    else:
        res = evaluate_guarded(store, norm.query, guard)
    cache.results.put(norm, res.results)
    return res.results, plan


def warm_cache(cache: QueryCache, store: XMLStore,
               queries: Sequence[Query]) -> None:
    """The warming pass: each query answered once, unguarded."""
    for q in queries:
        answer_query(cache, store, q, NullGuard())


class Pipe:
    """A ``socketpair`` with a thread reading frames off the far end, so
    a frame larger than the socket buffer can be written and read back
    from one thread.  Counts the bytes written."""

    def __init__(self) -> None:
        self._near, self._far = socket.socketpair()
        self._frames: "queue.Queue[Any]" = queue.Queue()
        self.bytes_written = 0
        self._thread = threading.Thread(target=self._read, daemon=True)
        self._thread.start()

    def _read(self) -> None:
        while True:
            frame = read_frame(self._far)
            self._frames.put(frame)
            if frame is None:
                return

    def sendall(self, data: bytes) -> None:  # write_frame's only call
        self.bytes_written += len(data)
        self._near.sendall(data)

    def round_trip(self, frame: Dict[str, Any]) -> None:
        write_frame(self, frame)  # type: ignore[arg-type]
        self._frames.get()

    def close(self) -> None:
        self._near.close()
        self._thread.join()
        self._far.close()


class StagedPass:
    """Replays queries stage by stage over one store with one cache."""

    def __init__(self, store: XMLStore, rec: SpanRecorder) -> None:
        self.store = store
        self.rec = rec
        self.cache = QueryCache(store)
        self.pipe = Pipe()
        self.flips = 0
        self.serialized_bytes = 0
        self.ops = 0

    def close(self) -> None:
        self.pipe.close()

    def warm(self, queries: Sequence[Query]) -> None:
        warm_cache(self.cache, self.store, queries)

    def replay(self, q: Query, op: int) -> served.Answer:
        rec, store, cache = self.rec, self.store, self.cache
        with rec.span("bench.op", op=op):
            with rec.span("perf.normalize"):
                norm = cache.normalize(q.text)
            with rec.span("perf.probe_miss") as probe:
                rows = cache.results.get(norm)
                if rows is not None and probe is not None:
                    probe.name = "perf.probe_hit"
            if rows is None:
                rows = self._execute(q, norm)
                with rec.span("perf.store"):
                    cache.results.put(norm, rows)
            with rec.span("core.serialize"):
                payload = row_payload(rows)
            with rec.span("server.frame"):
                self.pipe.round_trip(ok_response(
                    op, rows=payload, n=len(payload), truncated=False,
                    reason="", degraded=False,
                    generation=store.generation, queued_ms=0.0,
                    trace_id=""))
        self.ops += 1
        self.serialized_bytes += sum(len(r["xml"]) for r in payload)
        return served.answer_of([(r["score"], r["xml"]) for r in payload])

    def _execute(self, q: Query, norm) -> List[Any]:
        rec, store = self.rec, self.store
        with rec.span("query.parse"):
            parse_query(q.text)
        with rec.span("query.compile"):
            try:
                plan = compile_query(store, norm.query)
            except QueryCompileError:
                plan = None
        for word in words_of(q):
            with rec.span("index.fetch"):
                store.index.postings(word)
        if plan is None:
            with rec.span("core.evaluator_fallback"):
                return evaluate_query(store, norm.query)
        self.flips += plan.planner_choices.n_flipped
        with rec.span("plan.choose"):
            self._choose(q, plan)
        scorer = scorer_of(q)
        if q.cls == "phrase":
            with rec.span("access.phrasejoin.busy"):
                PhraseJoin.from_scorer(store, scorer).run()
        else:
            with rec.span("access.termjoin.busy"):
                TermJoin(store, scorer).run(words_of(q))
        with rec.span("engine.execute"):
            return execute(plan)

    def _choose(self, q: Query, plan: Any) -> None:
        """The planner alone, on the spec ``compile_query`` built."""
        regions = plan_regions(plan)
        spec = plan_rules.QuerySpec(
            terms=list(q.primary + q.secondary),
            phrase_mode=q.cls == "phrase", min_score=q.min_score,
            stop_after=q.stop_after, sortby=True, n_regions=len(regions),
            region_fraction=plan_rules.region_fraction(self.store, regions),
        )
        choose_plan(spec, self.store.stats, make_selection("cost"))


def plan_regions(plan: Any) -> Sequence[Tuple[int, int, int]]:
    """The structural filter's region table, wherever it sits."""
    while plan is not None:
        if plan.name == "structural-filter":
            return plan.regions
        plan = plan.children[0] if plan.children else None
    return ()


def engine_stats(plans: Sequence[Any]) -> Dict[str, float]:
    """Operator self-times, row q-errors and rows examined per result
    from the ``plan_stats`` of every executed plan."""
    self_s = {layer: 0.0 for layer in set(OPERATOR_LAYER.values())}
    qerrors: List[float] = []
    examined = results = 0

    def walk(node: Dict[str, Any]) -> None:
        nonlocal examined
        layer = OPERATOR_LAYER.get(node["operator"])
        if layer is not None:
            self_s[layer] += node["self_time_ms"] / 1e3
        if layer == "scan":
            examined += node["rows"]
        if node["q_error"] is not None:
            qerrors.append(node["q_error"])
        for child in node["children"]:
            walk(child)

    for plan in plans:
        stats = plan_stats(plan)
        results += stats["rows"]
        walk(stats)
    out = {f"engine.{layer}_self_s": t for layer, t in self_s.items()}
    out["engine.rows_examined_per_result"] = (
        examined / results if results else 0.0)
    out["plan.qerror_rows_p50"] = (
        measure.median(qerrors) if qerrors else 0.0)
    return out


class DirectSide:
    """One side of the interleaved comparison: the sample through the
    real dispatch, one call per query, rows serialized as the server
    would — with this side's own cache, guard policy and recorder."""

    def __init__(self, store: XMLStore, warm: Sequence[Query],
                 guarded: bool = False,
                 collector: Optional[obs.Collector] = None) -> None:
        self.store = store
        self.cache = QueryCache(store)
        self.guarded = guarded
        self.collector = collector
        #: plans run under the collector: only those carry timings
        self.plans: List[Any] = []
        self.guard_checks = 0
        warm_cache(self.cache, store, warm)
        #: the cache's tallies after the warming pass
        self.before = self.cache.stats()

    def __call__(self, i: int, q: Query) -> None:
        # what QueryServer builds per request when the client sets no
        # budgets
        guard = (QueryGuard(token=CancellationToken(), degrade=True)
                 if self.guarded else NullGuard())
        def answer() -> None:
            rows, plan = answer_query(self.cache, self.store, q, guard)
            row_payload(rows)
            if plan is not None and self.collector is not None:
                self.plans.append(plan)

        if self.collector is None:
            answer()
        else:
            under(self.collector, answer)
        self.guard_checks += getattr(guard, "checks", 0)


def cache_shares(store: XMLStore, cache: QueryCache,
                 before: Dict[str, Any], more: Sequence[Query],
                 n_distinct: int) -> Dict[str, float]:
    """Hit shares and evictions after the warming pass, over the sample
    and ``more`` queries run here."""
    warm_cache(cache, store, more)
    after = cache.stats()

    def share(tier: str) -> float:
        hits = after[tier]["hits"] - before[tier]["hits"]
        misses = after[tier]["misses"] - before[tier]["misses"]
        return hits / (hits + misses) if hits + misses else 0.0

    return {
        "perf.plan_cache.hit_share": share("plan"),
        "perf.result_cache.hit_share": share("result"),
        # every distinct text entered the plan cache exactly once
        "perf.plan_cache.evictions": n_distinct - len(cache.plans),
        "perf.result_cache.evictions": (after["result"]["evictions"]
                                        - before["result"]["evictions"]),
    }


def wire_pass(store_dir: str, warm: Sequence[Query],
              sample: Sequence[Query]):
    """The sample over the wire, one connection, one at a time.
    Returns ``(latencies, answers, admission snapshot)``."""
    proc, client = workloads.start_served(store_dir, warm)
    with proc, client:
        latencies, answers = [], []
        for q in sample:
            t = perf_counter()
            result = client.query(q.text)
            latencies.append(perf_counter() - t)
            answers.append(served.remote_answer(result))
        admission = client.stats()
        client.close()
        proc.stop()
    return latencies, answers, admission


def trace_served(workload: str, seed: int, sizes: Sizes, seconds: float,
                 workdir: str, out_dir: str) -> Outcome:
    out = Outcome()
    setup = SpanRecorder()
    with setup.span("workload.generate"):
        texts = inputs.volumes(seed, sizes)
        warm, blocks = workloads.query_rounds(workload, seed, sizes)
        sample = next(blocks)[:sizes.traced_ops]
    store_dir = os.path.join(workdir, "store")
    workloads.write_volumes(texts, store_dir)
    with setup.span("xmldb.load"):
        store = load_store(store_dir)
    timed_build(setup, store)
    blobs, bytes_per_posting = compress_terms(dict.fromkeys(
        (store, w) for q in sample for w in words_of(q)))
    # The cache tallies run on past the sample until the plan cache
    # must have evicted: the sample alone would still fit.
    overflow: List[Query] = []
    while len(warm) + len(sample) + len(overflow) < 1.5 * PLAN_CACHE_ENTRIES:
        overflow += next(blocks)
    distinct = len({q.text for q in list(warm) + sample + overflow})

    def one_round() -> Round:
        r = Round()
        wire_lat, wire_answers, admission = wire_pass(
            store_dir, warm, sample)

        # The real dispatch four ways at once: plain, a second plain
        # (the null: its share must be about zero), under the server's
        # guard, and under a collector.
        col = obs.Collector()
        plain = DirectSide(store, warm)
        guard = DirectSide(store, warm, guarded=True)
        collected = DirectSide(store, warm, collector=col)
        direct = measure.interleaved(sample, {
            "plain": plain, "null": DirectSide(store, warm),
            "guard": guard, "obs": collected,
        })
        record_null(out, direct)
        r.exact.update(cache_shares(store, plain.cache, plain.before,
                                    overflow, distinct))
        r.exact.update(index_counts(col))

        # The staged replay with and without the span recorder.
        rec = SpanRecorder()
        off, on = StagedPass(store, SpanRecorder(enabled=False)), \
            StagedPass(store, rec)
        counts: Dict[str, float] = {}
        answers: List[served.Answer] = []

        def traced_side(i: int, q: Query) -> None:
            answers.append(counted([store], counts,
                                   lambda: on.replay(q, i)))

        try:
            off.warm(warm)
            on.warm(warm)
            cpu0 = measure.cpu_seconds()
            t0 = perf_counter()
            staged = measure.interleaved(sample, {
                "off": lambda i, q: off.replay(q, i), "on": traced_side})
            both_wall = perf_counter() - t0
            cpu = measure.cpu_seconds() - cpu0
        finally:
            off.close()
            on.close()
        r.exact.update(counts)
        for q, a, b in zip(sample, wire_answers, answers):
            out.check(a == b and not a.flagged,
                      f"served answer differs from staged replay: "
                      f"{q.text!r}")
        # Decoding the sample's posting lists is its own span, outside
        # the walls the overhead is taken from.
        compressed_fetch(rec, blobs)
        r.spans = rec.spans
        r.timings.update(layer_timings(rec.spans))
        # plan_stats carries timings only for plans run under a collector
        r.timings.update(engine_stats(collected.plans))
        n = len(sample)
        r.timings.update({
            "plain_wall_s": sum(staged["off"]),
            "traced_wall_s": sum(staged["on"]),
            "obs.recorder_overhead_share":
                measure.overhead_share(direct, "obs", "plain"),
            "resilience.guard_overhead_share":
                measure.overhead_share(direct, "guard", "plain"),
            "server.wire_overhead_ms": (
                measure.median(wire_lat)
                - measure.median(direct["plain"])) * 1e3,
            "bench.client_cpu_share": cpu / both_wall,
        })
        r.exact.update({
            "plan.flips": on.flips,
            "resilience.guard_checks": guard.guard_checks,
            "core.serialize_bytes_per_op": on.serialized_bytes / n,
            "server.response_bytes_per_op": on.pipe.bytes_written / n,
            "server.admitted": admission["admitted"],
            "server.rejected": (admission["rejected_overload"]
                                + admission["rejected_shutdown"]),
            "server.degraded": admission["degraded"],
        })
        return r

    merged = run_rounds(one_round, seconds, out)
    merged.exact["index.compressed_bytes_per_posting"] = bytes_per_posting
    return finish(out, workload, seed, setup, merged, out_dir)


def trace_ingest_update(seed: int, sizes: Sizes, seconds: float,
                        workdir: str, out_dir: str) -> Outcome:
    out = Outcome()
    setup = SpanRecorder()
    with setup.span("workload.generate"):
        texts = inputs.volumes(seed, sizes)
        ninth = inputs.extra_volume(seed, sizes)
        sample = next(inputs.unique_blocks(seed, sizes))[:sizes.traced_ops]
    # Phase A, one span per step.
    store = XMLStore()
    with setup.span("xmldb.parse") as parse:
        for name, text in texts.items():
            store.load(name, text)
    timed_build(setup, store)
    store_dir = os.path.join(workdir, "store")
    with setup.span("xmldb.save"):
        save_store(store, store_dir)
    with setup.span("xmldb.load"):
        reloaded = load_store(store_dir)
    xml_bytes = sum(len(t.encode("utf-8")) for t in texts.values())
    for q in sample[:3]:
        out.check(workloads.reference_answer(store, q)
                  == workloads.reference_answer(reloaded, q),
                  f"reloaded store answers differently: {q.text!r}")
    server = QueryServer(store, cache=QueryCache(store))
    writer = workloads.Writer(server, ninth, sizes.reads_per_write)
    per_update = max(1, len(sample) // TRACED_UPDATES)

    def one_round() -> Round:
        """Gated writes with staged reads between them.  Each write runs
        once, outside the comparison; the reads after it run untraced,
        untraced again (the null) and traced."""
        r = Round()
        rec = SpanRecorder()
        passes = {"plain": StagedPass(store, SpanRecorder(enabled=False)),
                  "null": StagedPass(store, SpanRecorder(enabled=False)),
                  "traced": StagedPass(store, rec)}
        counts: Dict[str, float] = {}
        answers: Dict[int, served.Answer] = {}

        def traced_side(i: int, q: Query) -> None:
            answers[i] = counted(
                [store], counts, lambda: passes["traced"].replay(q, i))

        sides = {
            "plain": lambda i, q: passes["plain"].replay(q, i),
            "null": lambda i, q: passes["null"].replay(q, i),
            "traced": traced_side,
        }
        times: Dict[str, List[float]] = {name: [] for name in sides}
        updates = []
        cpu0 = measure.cpu_seconds()
        t0 = perf_counter()
        try:
            for start in range(0, len(sample), per_update):
                with rec.span("bench.op", op=f"update{start}"):
                    with rec.span("server.update"):
                        updates.append(writer.toggle())
                segment = measure.interleaved(
                    sample[start:start + per_update], sides, first=start)
                for name, seconds_per_op in segment.items():
                    times[name] += seconds_per_op
        finally:
            for p in passes.values():
                p.close()
            if writer.present:
                writer.toggle()
        wall = perf_counter() - t0
        cpu = measure.cpu_seconds() - cpu0
        record_null(out, times)
        # Reads never touch the ninth volume, so the reloaded store (which
        # never had it) answers them the same whatever the writer did.
        for i in random.Random(seed).sample(
                range(len(sample)), min(workloads.DEEP_CHECKS, len(sample))):
            out.check(
                answers[i] == workloads.reference_answer(reloaded, sample[i]),
                f"staged read differs from in-process: {sample[i].text!r}")
        r.exact.update(counts)
        r.spans = rec.spans
        r.timings = layer_timings(rec.spans)
        r.timings.update({
            "plain_wall_s": sum(times["plain"]),
            "traced_wall_s": sum(times["traced"]),
            "update_p50_ms": measure.median(updates) * 1e3,
            "bench.client_cpu_share": cpu / wall,
        })
        return r

    try:
        merged = run_rounds(one_round, seconds, out)
    finally:
        server.close()
    # A rate over a wall-clock time: measured, not exact.
    merged.timings["xmldb.parse_mb_s"] = (
        xml_bytes / 1e6 / (parse.end - parse.start))
    merged.exact["store_bytes_per_input_byte"] = (
        workloads.directory_bytes(store_dir) / xml_bytes)
    return finish(out, "ingest_update", seed, setup, merged, out_dir)


def run(workload: str, seed: int, sizes: Sizes, seconds: float,
        workdir: str, out_dir: str) -> Outcome:
    if workload == "paper_sweep":
        return trace_paper_sweep(seed, sizes, seconds, workdir, out_dir)
    if workload == "ingest_update":
        return trace_ingest_update(seed, sizes, seconds, workdir, out_dir)
    return trace_served(workload, seed, sizes, seconds, workdir, out_dir)
