"""``tix`` command-line interface.

Subcommands:

- ``tix demo`` — the paper's running example end-to-end: Figure 1
  database, Query 2, the Figure 6 projection, Figure 8 pick, and the
  top-ranked answer.
- ``tix query -q QUERY --doc name=path …`` — run an extended-XQuery
  query against XML files loaded into a fresh store (``-f FILE`` reads
  the query from a file).
- ``tix explain -q QUERY --doc name=path …`` — show the compiled
  pipelined plan for a compilable query, each operator annotated with
  its estimated cardinality (``est_rows``, from the statistics
  catalog).  ``--analyze`` executes the plan and shows estimated vs
  actual rows with the per-operator q-error; ``--json`` emits the
  plan tree (estimates, actuals, timings) as JSON.
- ``tix profile -q QUERY --doc name=path …`` — execute the query under
  the observability collector and print an EXPLAIN ANALYZE tree with
  per-operator time/rows/loops and access-method counters, phase span
  timings, and the metrics registry (``--json`` for machine-readable
  output, ``--trace-out FILE`` for a Chrome trace).
- ``tix query --analyze`` — run a query and append the EXPLAIN ANALYZE
  tree to the normal output.
- ``tix query --timeout MS --max-rows N [--degrade]`` — run under a
  resource guard (see ``docs/robustness.md``): strict mode exits with
  status 3 on a trip, ``--degrade`` prints the partial results flagged
  truncated instead; combined with ``--analyze`` the metrics report
  (including the ``guard.*`` counters) is appended to the output.
  ``--store-partial`` loads a damaged ``--store`` directory best-effort,
  reporting skipped documents on stderr.
- ``tix batch -q Q -q Q … | -f FILE`` — run many queries concurrently
  over one shared store (``repro.perf.execute_batch``): per-query
  ``--timeout``/``--max-rows`` guards with ``--no-degrade`` for strict
  mode, ``--workers`` for pool width, ``--no-cache`` to disable the
  shared plan/result cache, ``--json`` for machine-readable output.
  ``-f FILE`` holds a JSON array of query strings, or plain text with
  queries separated by lines containing only ``---``.  Results print in
  submission order; the exit status is 3 when any query failed.
- ``tix bench {table1,table2,table3,table4,table5,pick}`` — regenerate a
  table of the paper's evaluation section (``--scale`` shrinks planted
  frequencies for quick runs; ``--profile`` adds per-access-method
  metric breakdowns).
- ``tix serve --store DIR|--doc name=path …`` — expose the telemetry
  pipeline over HTTP (stdlib only): ``/metrics`` in the OpenMetrics
  text format, ``/healthz`` liveness, ``/varz`` JSON (registry snapshot
  + windowed rates from the time-series ring), ``/traces`` for the
  distributed trace store.  ``-q``/``-f`` run a warmup batch at
  startup; ``--audit-log FILE`` appends one JSONL record per query
  with ``--sample-rate``/``--slow-ms`` controls.
  ``--query-port N`` additionally serves the length-prefixed JSON
  wire protocol (:mod:`repro.server`) with admission control
  (``--max-inflight``, ``--queue-timeout-ms``) and a draining
  shutdown (``--drain-timeout``); served requests are traced with
  tail-based retention (``--trace-capacity``, ``--trace-slow-ms``,
  ``--trace-sample`` — see ``docs/observability.md``).
- ``tix client --port N -q QUERY`` — query a running server over the
  wire protocol: ``--timeout``/``--max-rows`` set server-side budgets,
  ``--no-degrade`` requests strict execution, ``--ping``/``--stats``
  for health and admission statistics, ``--json`` for raw output.
- ``tix loadtest --port N -q Q …`` — drive a running server with
  ``--clients`` concurrent workers sending ``--total`` requests and
  report the outcome mix (ok/truncated/rejected/error/transport plus
  latency quantiles); exit status 3 on any transport error.
- ``tix top`` — live view of a running ``tix serve``: polls ``/varz``
  and ``/traces`` every ``--interval`` seconds and renders request
  latency, admission state, and the in-flight / slowest-retained trace
  tables (``--iterations N --plain`` for a one-shot scriptable dump).
- ``tix trace FILE | --server HOST:PORT`` — fetch, inspect, or export
  distributed traces: without ``--id`` the in-flight/retained listing,
  with ``--id`` one trace's full span tree with per-span self time,
  ``--chrome-out FILE`` the Chrome ``traceEvents`` export (converted
  here from the span tree; Perfetto-loadable), ``--json`` the raw
  payload.  ``--server`` talks the wire protocol to the *query*
  port; ``FILE`` re-reads a previously saved ``--json`` payload.
- ``tix events FILE`` — inspect a query audit log: filter by
  ``--outcome``, ``--kind``, ``--min-wall MS`` or ``--slow-only``,
  ``--limit N`` for the tail, ``--json`` for raw records.
- ``tix feedback FILE`` — aggregate an audit log into a misestimation
  report: the worst-misestimated operators and query shapes ranked by
  median q-error (count, median/max q-error, mean estimated vs actual
  rows).  Reads both audit-log schema versions; ``--min-count`` drops
  singletons, ``--json`` for the machine-readable report.
- ``tix lint [PATH]`` — run the engine invariant linter
  (:mod:`repro.analysis`) over the source tree: operator lifecycle,
  guard ticks, metric/fault-point drift, lock discipline, resource
  safety.  ``--json`` for the machine-readable report, ``--rule`` to
  select rules, ``--fail-on warning|error`` for the exit-code
  threshold (exit 1 when findings reach it), ``--list-rules`` for the
  catalog.  See ``docs/static-analysis.md``.

See ``docs/observability.md`` for the metric catalog and output formats.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.errors import TIXError
from repro.xmldb.store import XMLStore


def _load_store(doc_args: List[str],
                store_dir: Optional[str] = None,
                partial: bool = False) -> XMLStore:
    if store_dir:
        from repro.xmldb.persist import load_store_report

        report = load_store_report(store_dir, partial=partial)
        for err in report.skipped:
            print(f"warning: skipped {err}", file=sys.stderr)
        store = report.store
    else:
        store = XMLStore()
    for spec in doc_args:
        if "=" not in spec:
            raise SystemExit(
                f"--doc expects name=path, got {spec!r}"
            )
        name, path = spec.split("=", 1)
        with open(path, "r", encoding="utf-8") as f:
            store.load(name, f.read())
    return store


def _cmd_demo(_args: argparse.Namespace) -> int:
    from repro.exampledata import (
        example_store, pickfoo_criterion, query2_pattern,
    )
    from repro.core import (
        pick, scored_projection, scored_selection, tree_from_document,
    )
    from repro.core.operators import top_k_trees

    store = example_store()
    articles = store.document("articles.xml")
    tree = tree_from_document(articles)
    pattern = query2_pattern()

    print("Figure 1 database loaded:", store)
    proj = scored_projection([tree], pattern, ["$1", "$3", "$4"])
    print("\nFigure 6 (projection, PL={$1,$3,$4}):")
    print(" ", proj[0].sketch())
    picked = pick(proj, "$4", pickfoo_criterion(), pattern=pattern)
    print("\nFigure 8 (after Pick):")
    print(" ", picked[0].sketch())
    witnesses = scored_selection(picked, _existing_score_pattern())
    top = top_k_trees(witnesses, 1)[0]
    best = [n for n in top.nodes() if "$4" in n.labels][0]
    print("\nTop-ranked element:", best.tag, f"(score {best.score:g})")
    doc_id, node_id = best.source
    print(store.document(doc_id).serialize(node_id, indent=True)[:400])
    return 0


def _existing_score_pattern():
    from repro.core.pattern import (
        EdgeType, ExistingScore, FromLabel, PatternNode, ScoredPatternTree,
    )

    p1 = PatternNode("$1", tag="article")
    p1.add_child(
        PatternNode(
            "$4",
            predicate=lambda n: n.score is not None and n.tag != "article",
        ),
        EdgeType.ADS,
    )
    return ScoredPatternTree(
        p1, scoring={"$4": ExistingScore(), "$1": FromLabel("$4")}
    )


def _read_query(args: argparse.Namespace) -> str:
    if args.query:
        return args.query
    if args.file:
        with open(args.file, "r", encoding="utf-8") as f:
            return f.read()
    raise SystemExit("provide a query with -q or -f")


def _add_planner_args(parser: argparse.ArgumentParser) -> None:
    """Planner options shared by ``query``, ``explain``, ``profile``."""
    parser.add_argument("--planner", choices=("cost", "heuristic"),
                        help="physical plan selection policy "
                             "(default: cost; heuristic reproduces the "
                             "pre-planner hard-coded choices)")
    parser.add_argument("--force-op", action="append", metavar="NAME=OP",
                        dest="force_op",
                        help="pin a planner decision point, e.g. "
                             "score=Comp2, filter=bisect, "
                             "rank=sort-limit (repeatable)")
    parser.add_argument("--feedback", metavar="FILE",
                        help="audit log (JSONL) whose misestimation "
                             "report re-costs the plan (see tix "
                             "feedback)")


def _planner_opts(args: argparse.Namespace) -> dict:
    """Build ``compile_query`` planner kwargs from parsed CLI args.

    Raises :class:`~repro.errors.PlannerHintError` on malformed
    ``--force-op`` values (callers surface it, never swallow it)."""
    from repro.plan.optimizer import parse_force_ops

    opts: dict = {}
    if getattr(args, "planner", None):
        opts["planner"] = args.planner
    if getattr(args, "force_op", None):
        opts["force_ops"] = parse_force_ops(args.force_op)
    if getattr(args, "feedback", None):
        from repro.obs.events import iter_events
        from repro.plan.feedback import feedback_report
        from repro.plan.optimizer import corrections_from_feedback

        with open(args.feedback, "r", encoding="utf-8") as f:
            records = list(iter_events(f))
        opts["corrections"] = corrections_from_feedback(
            feedback_report(records))
    return opts


def _print_results(results, with_scores: bool, truncated: bool = False,
                   reason: str = "") -> None:
    for i, tree in enumerate(results, 1):
        score = f" score={tree.score:g}" if tree.score is not None else ""
        print(f"-- result {i}{score}")
        print(tree.to_xml(with_scores=with_scores))
    if truncated:
        print(f"({len(results)} results, truncated: {reason})")
    else:
        print(f"({len(results)} results)")


def _cmd_query(args: argparse.Namespace) -> int:
    """Two modes (docs/performance.md, "Execution pipeline"): with no
    flag the reference evaluator answers — the oracle, and the only
    path that honours ``Return``; any guard, ``--analyze`` or planner
    flag runs the served pipeline."""
    from repro.errors import PlannerHintError
    from repro.query import run_query

    store = _load_store(args.doc or [], args.store,
                        partial=args.store_partial)
    guarded = (args.timeout is not None or args.max_rows is not None
               or args.degrade)
    try:
        opts = _planner_opts(args)
        if guarded or args.analyze or opts:
            return _query_pipeline(store, _read_query(args), args,
                                   guarded, opts)
    except PlannerHintError as exc:
        print(f"planner: {exc}", file=sys.stderr)
        return 2
    _print_results(run_query(store, _read_query(args)), args.scores)
    return 0


def _query_pipeline(store, source: str, args: argparse.Namespace,
                    guarded: bool, opts: dict) -> int:
    """``tix query`` through :func:`~repro.resilience.run_query_guarded`.

    Strict mode exits with status 3 on a guard trip; degrade mode
    prints the partial results with a truncation notice.  ``--analyze``
    runs under a collector and appends the EXPLAIN ANALYZE tree (phase
    timings when the query is not compilable), plus the metrics report
    — where the ``guard.*`` counters land — on a guarded run.  Planner
    options cannot apply to a non-compilable query: it falls back to
    the evaluator with a notice."""
    from contextlib import nullcontext

    from repro import obs
    from repro.engine.base import explain
    from repro.errors import QueryAbortedError
    from repro.resilience import NullGuard, QueryGuard, run_query_guarded

    guard = QueryGuard(
        timeout_ms=args.timeout, max_rows=args.max_rows,
        degrade=args.degrade,
    ) if guarded else NullGuard()
    try:
        with (obs.collecting() if args.analyze
              else nullcontext()) as collector:
            res = run_query_guarded(store, source, guard, **opts)
    except QueryAbortedError as exc:
        print(f"query aborted: {exc}", file=sys.stderr)
        if collector is not None:
            print(collector.metrics.render(), file=sys.stderr)
        return 3
    if opts and res.plan is None:
        print(f"planner: query not compilable ({res.compile_error}); "
              "evaluator fallback", file=sys.stderr)
    _print_results(res.results, args.scores, res.truncated, res.reason)
    if collector is not None:
        print()
        if res.plan is not None:
            print("EXPLAIN ANALYZE")
            print(explain(res.plan, analyze=True))
        else:
            print("plan: not compilable (evaluator fallback)")
            for span in collector.tracer.roots:
                print(f"  {span.name}: {span.duration_ms:.3f}ms")
        if guarded:
            print()
            print(collector.metrics.render())
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.errors import PlannerHintError
    from repro.obs.profile import profile_query

    store = _load_store(args.doc or [], args.store)
    try:
        report = profile_query(store, _read_query(args),
                               **_planner_opts(args))
    except PlannerHintError as exc:
        print(f"planner: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    if args.trace_out:
        report.write_chrome_trace(args.trace_out)
        if not args.json:
            print(f"chrome trace written to {args.trace_out}")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.engine.base import explain, plan_stats
    from repro.errors import PlannerHintError, QueryCompileError
    from repro.query import parse_query
    from repro.query.compiler import compile_query

    store = _load_store(args.doc or [], args.store)
    try:
        plan = compile_query(store, parse_query(_read_query(args)),
                             **_planner_opts(args))
    except PlannerHintError as exc:
        print(f"planner: {exc}", file=sys.stderr)
        return 2
    except QueryCompileError as exc:
        print(f"not compilable: {exc}", file=sys.stderr)
        return 2
    if args.analyze:
        from repro import obs
        from repro.engine.base import execute
        from repro.plan.estimate import publish_qerrors

        with obs.collecting():
            execute(plan)
            publish_qerrors(plan)
    if args.json:
        print(json.dumps(plan_stats(plan), indent=2, sort_keys=True))
    else:
        print(explain(plan, analyze=args.analyze))
    return 0


def _cmd_save(args: argparse.Namespace) -> int:
    from repro.xmldb.persist import save_store

    store = _load_store(args.doc or [])
    save_store(store, args.directory)
    print(
        f"saved {store.n_documents} documents "
        f"({store.n_elements} elements) to {args.directory}"
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    # Served entirely from the generation-cached statistics catalog —
    # no inverted-index build just to print frequencies.
    store = _load_store(args.doc or [], args.store)
    stats = store.stats
    print(store)
    print(f"  max depth:   {stats.max_depth}")
    print(f"  avg depth:   {stats.avg_depth:.2f}")
    print(f"  max fan-out: {stats.max_fanout}")
    print(f"  avg fan-out: {stats.avg_fanout:.2f}")
    print(f"  vocabulary:  {len(stats.term_frequency)} terms")
    print("  most frequent terms:")
    ranked = sorted(stats.term_frequency.items(),
                    key=lambda kv: (-kv[1], kv[0]))
    for term, freq in ranked[:10]:
        print(f"    {term:<20} {freq}")
    return 0


def _cmd_nexi(args: argparse.Namespace) -> int:
    from repro.nexi import run_nexi

    store = _load_store(args.doc or [], args.store)
    hits = run_nexi(store, _read_query(args), top_k=args.top)
    for i, hit in enumerate(hits, 1):
        doc = store.document(hit.doc_id)
        print(f"{i:3}. score={hit.score:<8g} <{doc.tags[hit.node_id]}> "
              f"in {doc.name}")
        if args.show:
            print("     " + doc.serialize(hit.node_id)[:120])
    print(f"({len(hits)} hits)")
    return 0


def _read_batch_queries(args: argparse.Namespace) -> List[str]:
    queries: List[str] = list(args.query or [])
    if args.file:
        with open(args.file, "r", encoding="utf-8") as f:
            text = f.read()
        stripped = text.lstrip()
        if stripped.startswith("["):
            loaded = json.loads(text)
            if not isinstance(loaded, list) or not all(
                    isinstance(q, str) for q in loaded):
                raise SystemExit(
                    f"{args.file}: expected a JSON array of query strings"
                )
            queries.extend(loaded)
        else:
            block: List[str] = []
            for line in text.splitlines():
                if line.strip() == "---":
                    if "".join(block).strip():
                        queries.append("\n".join(block))
                    block = []
                else:
                    block.append(line)
            if "".join(block).strip():
                queries.append("\n".join(block))
    if not queries:
        raise SystemExit("provide queries with -q (repeatable) or -f")
    return queries


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.perf import QueryCache, execute_batch

    store = _load_store(args.doc or [], args.store)
    queries = _read_batch_queries(args)
    cache = None if args.no_cache else QueryCache(store)
    result = execute_batch(
        store, queries,
        max_workers=args.workers,
        timeout_ms=args.timeout,
        max_rows=args.max_rows,
        degrade=not args.no_degrade,
        cache=cache,
    )
    if args.json:
        print(json.dumps({
            "n_queries": result.n_queries,
            "n_failed": result.n_failed,
            "n_truncated": result.n_truncated,
            "wall_ms": result.wall_ms,
            "outcomes": [
                {
                    "index": o.index,
                    "n_results": o.n_results,
                    "truncated": o.truncated,
                    "reason": o.reason,
                    "error": o.error,
                    "error_type": o.error_type,
                    "elapsed_ms": o.elapsed_ms,
                }
                for o in result
            ],
        }, indent=2, sort_keys=True))
    else:
        for o in result:
            if not o.ok:
                print(f"-- query {o.index + 1}: FAILED "
                      f"({o.error_type}: {o.error})")
            elif o.truncated:
                print(f"-- query {o.index + 1}: {o.n_results} results "
                      f"(truncated: {o.reason}) [{o.elapsed_ms:.1f}ms]")
            else:
                print(f"-- query {o.index + 1}: {o.n_results} results "
                      f"[{o.elapsed_ms:.1f}ms]")
        print(f"({result.n_queries} queries, {result.n_failed} failed, "
              f"{result.n_truncated} truncated, {result.wall_ms:.1f}ms)")
    return 3 if result.n_failed else 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import (
        run_pick_experiment, run_table1, run_table2, run_table3,
        run_table4, run_table5,
    )
    from repro.workload import (
        generate_corpus, table123_spec, table4_spec, table5_spec,
    )

    which = args.table
    runs = args.runs
    profile = args.profile
    if which == "pick":
        run_pick_experiment(runs=runs, profile=profile)
        return 0
    if which == "planner":
        from repro.bench import run_planner_bench

        run_planner_bench(scale=args.scale, runs=runs)
        return 0
    if which == "quality":
        from repro.workload import (
            build_relevance_workload, score_quality_experiment,
        )

        workload = build_relevance_workload()
        print("Scoring quality (simple vs complex, §6.1's accuracy claim)")
        print(f"{'scorer':<10} {'P@10':>6} {'MAP':>6} {'nDCG@10':>8}")
        for r in score_quality_experiment(workload):
            print(f"{r.scorer_name:<10} {r.precision_at_10:>6.2f} "
                  f"{r.average_precision:>6.2f} {r.ndcg_at_10:>8.2f}")
        return 0
    if which in ("table1", "table2", "table3"):
        spec, rows = table123_spec(scale=args.scale)
        store = generate_corpus(spec)
        if which == "table1":
            run_table1(store, rows["table1"], runs=runs, profile=profile)
        elif which == "table2":
            run_table2(store, rows["table1"], runs=runs, profile=profile)
        else:
            run_table3(store, rows["table3"], runs=runs, profile=profile)
    elif which == "table4":
        spec, rows4 = table4_spec(scale=args.scale)
        run_table4(generate_corpus(spec), rows4, runs=runs, profile=profile)
    else:
        spec, rows5 = table5_spec(scale=args.scale * 0.05)
        run_table5(generate_corpus(spec), rows5, runs=runs, profile=profile)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from repro import obs as _obs
    from repro.obs import events as _events
    from repro.obs.serve import ObsServer
    from repro.obs.snapshot import Snapshotter

    # SIGTERM (and a SIGINT left at SIG_IGN by a backgrounding shell)
    # must take the same clean-teardown path as Ctrl-C, or supervisors
    # would kill the process without closing the sink and snapshotter.
    def _terminate(signum: int, frame: object) -> None:
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _terminate)
    signal.signal(signal.SIGINT, _terminate)

    store = _load_store(args.doc or [], args.store)
    col = _obs.Collector()
    _obs.install(col)
    sink = None
    if args.audit_log:
        sink = _events.JsonlSink(
            args.audit_log, sample_rate=args.sample_rate,
            slow_ms=args.slow_ms,
        )
        _events.install_sink(sink)
    # Build the lazy index/structure under the collector so the store
    # gauges (index.n_terms, …) are populated before the first scrape.
    store.index
    store.structure
    if args.query or args.file:
        from repro.perf import QueryCache, execute_batch

        queries = _read_batch_queries(args)
        warm = execute_batch(store, queries, cache=QueryCache(store))
        print(f"warmup: {warm.n_queries} queries, "
              f"{warm.n_failed} failed", file=sys.stderr)
    snap = Snapshotter(col.metrics, interval_s=args.snapshot_interval,
                       capacity=args.snapshot_capacity)
    snap.start()
    from repro.obs.tracestore import RetentionPolicy, TraceStore

    tstore = TraceStore(
        capacity=args.trace_capacity,
        policy=RetentionPolicy(slow_ms=args.trace_slow_ms,
                               sample_rate=args.trace_sample),
    )
    qserver = None
    if args.query_port is not None:
        from repro.perf import QueryCache as _QC
        from repro.server import QueryServer

        qserver = QueryServer(
            store, host=args.host, port=args.query_port,
            max_inflight=args.max_inflight,
            queue_timeout_ms=args.queue_timeout_ms,
            max_timeout_ms=args.max_timeout,
            cache=None if args.no_query_cache else _QC(store),
            trace_store=tstore,
        )
        qserver.start()
        print(f"serving queries on {qserver.address}  "
              f"(wire protocol v1; max_inflight={args.max_inflight})",
              file=sys.stderr)
    server = ObsServer(col.metrics, snapshotter=snap, trace_store=tstore,
                       host=args.host, port=args.port)
    print(f"serving metrics on {server.url}  "
          f"(/metrics /healthz /varz /traces; Ctrl-C to stop)",
          file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        if qserver is not None:
            # Drain before the telemetry teardown so every accepted
            # request is answered while metrics are still live.
            drained = qserver.close(drain_s=args.drain_timeout)
            stats = qserver.admission.snapshot()
            state = "drained clean" if drained else "drain timed out"
            print(f"query server {state}: {stats['admitted']} admitted, "
                  f"{stats['rejected_overload']} rejected overloaded, "
                  f"{stats['degraded']} degraded", file=sys.stderr)
            ts = tstore.stats()
            print(f"traces: {ts['retained']} retained "
                  f"({ts['retained_total']} promoted, "
                  f"{ts['dropped']} dropped)", file=sys.stderr)
        server.server_close()
        snap.stop()
        if sink is not None:
            _events.uninstall_sink()
            sink.close()
        _obs.uninstall()
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    from repro.errors import QueryAbortedError, ServerError
    from repro.server import PooledClient

    with PooledClient(args.host, args.port,
                      call_timeout_s=args.call_timeout) as client:
        if args.ping:
            ok = client.ping()
            print("pong" if ok else "no response")
            return 0 if ok else 3
        if args.stats:
            print(json.dumps(client.stats(), indent=2, sort_keys=True))
            return 0
        source = _read_query(args)
        try:
            res = client.query(
                source, timeout_ms=args.timeout, max_rows=args.max_rows,
                degrade=not args.no_degrade, with_scores=args.scores,
            )
        except (QueryAbortedError, ServerError) as exc:
            print(f"query refused/aborted: {exc}", file=sys.stderr)
            return 3
        if args.json:
            print(json.dumps({
                "n_results": res.n_results,
                "truncated": res.truncated,
                "reason": res.reason,
                "degraded": res.degraded,
                "generation": res.generation,
                "rows": [
                    {"score": r.score, "xml": r.xml} for r in res.rows
                ],
            }, indent=2, sort_keys=True))
            return 0
        for i, row in enumerate(res.rows, 1):
            score = f" score={row.score:g}" if row.score is not None else ""
            print(f"-- result {i}{score}")
            print(row.xml)
        notes = []
        if res.truncated:
            notes.append(f"truncated: {res.reason}")
        if res.degraded:
            notes.append("degraded under load")
        tail = f" ({'; '.join(notes)})" if notes else ""
        print(f"({res.n_results} results, generation "
              f"{res.generation}){tail}")
    return 0


def _cmd_loadtest(args: argparse.Namespace) -> int:
    from repro.server import run_loadtest

    queries = _read_batch_queries(args)
    report = run_loadtest(
        args.host, args.port, queries,
        clients=args.clients, total=args.total,
        timeout_ms=args.timeout, max_rows=args.max_rows,
        degrade=not args.no_degrade,
        call_timeout_s=args.call_timeout,
        seed=args.seed,
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 3 if report.n_transport_errors else 0


def _trace_row(t: dict) -> str:
    """One trace-summary line shared by ``tix top`` and ``tix trace``."""
    flags = []
    if t.get("degraded"):
        flags.append("degraded")
    if t.get("truncated"):
        flags.append("truncated")
    tail = f"  [{','.join(flags)}]" if flags else ""
    outcome = t.get("outcome") or "-"
    why = t.get("retained_for") or "-"
    return (f"  {t.get('trace_id', ''):<18} {t.get('op', ''):<6} "
            f"{t.get('wall_ms', 0.0):>9.1f} {t.get('queued_ms', 0.0):>8.1f} "
            f"{outcome:<9} {why:<8} {t.get('n_spans', 0):>5}  "
            f"{str(t.get('query_sha256', ''))[:12]}{tail}")


_TRACE_HEADER = (f"  {'trace':<18} {'op':<6} {'wall ms':>9} {'queued':>8} "
                 f"{'outcome':<9} {'kept':<8} {'spans':>5}  query")


def _render_top(base: str, varz: dict, traces: Optional[dict],
                limit: int) -> str:
    metrics = varz.get("metrics") or {}

    def num(name: str) -> float:
        v = metrics.get(name, 0)
        return float(v) if isinstance(v, (int, float)) else 0.0

    lines = [f"tix top — {base}  "
             f"uptime {float(varz.get('uptime_s', 0.0)):.0f}s"]
    req = metrics.get("server.request_ms")
    if isinstance(req, dict):
        lines.append(
            f"  requests: {req.get('count', 0):g} served  "
            f"p50/p95/p99 {req.get('p50', 0.0):.1f}/"
            f"{req.get('p95', 0.0):.1f}/{req.get('p99', 0.0):.1f} ms")
    lines.append(
        f"  admission: inflight {num('server.inflight'):g}  "
        f"admitted {num('server.admitted'):g}  "
        f"rejected {num('server.rejected.overload'):g}  "
        f"degraded {num('server.degraded'):g}")
    if traces is None:
        lines.append("  traces: (no trace store attached)")
        return "\n".join(lines)
    st = traces.get("stats") or {}
    lines.append(
        f"  traces: {st.get('inflight', 0)} in flight  "
        f"{st.get('retained', 0)}/{st.get('capacity', 0)} retained  "
        f"{st.get('retained_total', 0)} promoted  "
        f"{st.get('dropped', 0)} dropped")
    inflight = traces.get("inflight") or []
    if inflight:
        lines += ["", "  IN FLIGHT", _TRACE_HEADER]
        by_age = sorted(inflight, key=lambda t: -t.get("wall_ms", 0.0))
        lines += [_trace_row(t) for t in by_age[:limit]]
    retained = traces.get("retained") or []
    if retained:
        slowest = sorted(retained, key=lambda t: -t.get("wall_ms", 0.0))
        lines += ["", "  SLOWEST RETAINED", _TRACE_HEADER]
        lines += [_trace_row(t) for t in slowest[:limit]]
    return "\n".join(lines)


def _cmd_top(args: argparse.Namespace) -> int:
    import time as _time
    import urllib.error
    import urllib.request

    base = f"http://{args.host}:{args.port}"

    def fetch(path: str) -> Optional[dict]:
        try:
            with urllib.request.urlopen(
                    base + path, timeout=args.call_timeout) as resp:
                return json.loads(resp.read().decode("utf-8"))
        except urllib.error.HTTPError:
            return None  # endpoint 404s when no trace store is attached

    done = 0
    try:
        while True:
            varz = fetch("/varz")
            traces = fetch(f"/traces?limit={args.limit}")
            body = _render_top(base, varz or {}, traces, args.limit)
            if not args.plain:
                sys.stdout.write("\x1b[2J\x1b[H")
            print(body)
            sys.stdout.flush()
            done += 1
            if args.iterations and done >= args.iterations:
                return 0
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
    except OSError as exc:
        print(f"tix top: cannot reach {base}: {exc}", file=sys.stderr)
        return 3


def _render_trace(trace: dict) -> str:
    from repro.obs.trace import render_span_tree

    lines = [
        f"trace {trace.get('trace_id', '?')}  op={trace.get('op', '?')}  "
        f"attempt={trace.get('attempt', 0)}  "
        f"status={trace.get('status', '?')}",
        f"  outcome={trace.get('outcome') or '-'}  "
        f"retained_for={trace.get('retained_for') or '-'}  "
        f"wall={trace.get('wall_ms', 0.0):.3f} ms  "
        f"queued={trace.get('queued_ms', 0.0):.3f} ms",
        f"  query_sha256={trace.get('query_sha256') or '-'}",
    ]
    spans = trace.get("spans")
    if isinstance(spans, dict):
        lines.append("  spans:")
        lines += render_span_tree(spans, depth=1)
    else:
        lines.append("  spans: (none recorded — collector not installed)")
    return "\n".join(lines)


def _render_trace_listing(snapshot: dict, limit: int) -> str:
    st = snapshot.get("stats") or {}
    lines = [
        f"trace store: {st.get('inflight', 0)} in flight, "
        f"{st.get('retained', 0)}/{st.get('capacity', 0)} retained "
        f"({st.get('retained_total', 0)} promoted, "
        f"{st.get('dropped', 0)} dropped)",
    ]
    inflight = snapshot.get("inflight") or []
    if inflight:
        lines += ["", "IN FLIGHT", _TRACE_HEADER]
        lines += [_trace_row(t) for t in inflight[:limit]]
    retained = snapshot.get("retained") or []
    if retained:
        lines += ["", "RETAINED (newest first)", _TRACE_HEADER]
        lines += [_trace_row(t) for t in retained[:limit]]
    if not inflight and not retained:
        lines.append("(no traces)")
    return "\n".join(lines)


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.trace import chrome_trace_events

    if bool(args.file) == bool(args.server):
        print("tix trace: give exactly one of FILE or --server HOST:PORT",
              file=sys.stderr)
        return 2
    if args.server:
        host, _, port_s = args.server.rpartition(":")
        if not host or not port_s.isdigit():
            print(f"tix trace: --server wants HOST:PORT, "
                  f"got {args.server!r}", file=sys.stderr)
            return 2
        from repro.server import PooledClient

        try:
            with PooledClient(host, int(port_s),
                              call_timeout_s=args.call_timeout) as client:
                if args.id:
                    payload = client.traces(args.id)
                else:
                    payload = client.traces(limit=args.limit)
        except OSError as exc:
            print(f"tix trace: cannot reach {args.server}: {exc}",
                  file=sys.stderr)
            return 3
    else:
        with open(args.file, "r", encoding="utf-8") as f:
            payload = json.load(f)
        if not isinstance(payload, dict):
            print(f"tix trace: {args.file} is not a trace JSON object",
                  file=sys.stderr)
            return 2
    is_single = "spans" in payload or "trace_id" in payload
    try:
        if args.chrome_out:
            if not is_single:
                print("tix trace: --chrome-out needs one trace "
                      "(use --id, or a single-trace FILE)", file=sys.stderr)
                return 2
            spans = payload.get("spans")
            chrome = chrome_trace_events(
                [spans] if isinstance(spans, dict) else [])
            with open(args.chrome_out, "w", encoding="utf-8") as f:
                json.dump(chrome, f, indent=1)
            print(f"wrote {len(chrome['traceEvents'])} events to "
                  f"{args.chrome_out} (load at https://ui.perfetto.dev)",
                  file=sys.stderr)
            if not args.json:
                return 0
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        elif is_single:
            print(_render_trace(payload))
        else:
            print(_render_trace_listing(payload, args.limit))
    except (KeyError, TypeError, ValueError) as exc:
        # The renderers read the serialized span form strictly; a file
        # that is not one fails here, typed, instead of a traceback.
        print(f"tix trace: malformed span tree ({exc!r})", file=sys.stderr)
        return 2
    return 0


def _cmd_events(args: argparse.Namespace) -> int:
    from repro.obs.events import filter_events, iter_events

    with open(args.file, "r", encoding="utf-8") as f:
        records = list(iter_events(f))
    selected = list(filter_events(
        records, outcome=args.outcome, min_wall_ms=args.min_wall,
        slow_only=args.slow_only,
    ))
    if args.kind:
        selected = [r for r in selected if r.get("kind") == args.kind]
    if args.limit is not None:
        selected = selected[-args.limit:]
    if args.json:
        for record in selected:
            print(json.dumps(record, sort_keys=True))
    else:
        for r in selected:
            mark = " SLOW" if r.get("slow") else ""
            extras = []
            if r.get("cache"):
                extras.append(f"cache={r['cache']}")
            if r.get("error_type"):
                extras.append(f"error={r['error_type']}")
            trip = r.get("guard", {}).get("trip")
            if trip:
                extras.append(f"trip={trip}")
            tail = (" " + " ".join(extras)) if extras else ""
            print(f"{r['ts']:.3f} {r['kind']:<6} {r['outcome']:<9} "
                  f"{r['wall_ms']:8.2f}ms {r['rows']:>6} rows "
                  f"{r['query_sha256']}{tail}{mark}")
        print(f"({len(selected)} of {len(records)} events)")
    return 0


def _cmd_feedback(args: argparse.Namespace) -> int:
    from repro.obs.events import iter_events
    from repro.plan.feedback import feedback_report

    with open(args.file, "r", encoding="utf-8") as f:
        records = list(iter_events(f))
    report = feedback_report(records, min_count=args.min_count)
    if args.corrections:
        from repro.plan.optimizer import corrections_from_feedback

        print(json.dumps(corrections_from_feedback(report),
                         indent=2, sort_keys=True))
        return 0
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render(limit=args.limit))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import (
        Severity, lint, render_human, render_json, rule_classes,
    )

    if args.list_rules:
        for name, cls in sorted(rule_classes().items()):
            print(f"{name:<20} [{cls.severity.name}] {cls.description}")
        return 0
    try:
        result = lint(root=args.path, rules=args.rule or None)
    except ValueError as exc:
        raise SystemExit(f"tix lint: {exc}")
    if args.json:
        print(render_json(result))
    else:
        print(render_human(result, verbose=args.verbose))
    return 1 if result.count_at_least(Severity(args.fail_on)) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tix",
        description="TIX: querying structured text in an XML database "
                    "(SIGMOD 2003 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("demo", help="run the paper's running example") \
        .set_defaults(fn=_cmd_demo)

    q = sub.add_parser("query", help="run an extended-XQuery query")
    q.add_argument("-q", "--query", help="query text")
    q.add_argument("-f", "--file", help="file containing the query")
    q.add_argument("--doc", action="append",
                   help="load a document: name=path (repeatable)")
    q.add_argument("--store", help="load a saved store directory")
    q.add_argument("--scores", action="store_true",
                   help="serialize node scores as attributes")
    q.add_argument("--analyze", action="store_true",
                   help="also print the EXPLAIN ANALYZE tree")
    q.add_argument("--timeout", type=float, metavar="MS",
                   help="wall-clock deadline in milliseconds; exceeding "
                        "it aborts the query (exit status 3) unless "
                        "--degrade is set")
    q.add_argument("--max-rows", type=int, metavar="N",
                   help="output-row budget; the plan is aborted before "
                        "computing row N+1")
    q.add_argument("--degrade", action="store_true",
                   help="on a guard trip, print the partial results "
                        "flagged truncated instead of failing")
    q.add_argument("--store-partial", action="store_true",
                   help="with --store: skip corrupt/missing documents "
                        "(reported on stderr) instead of failing")
    _add_planner_args(q)
    q.set_defaults(fn=_cmd_query)

    p = sub.add_parser(
        "profile",
        help="execute a query under the observability collector and "
             "print EXPLAIN ANALYZE + metrics",
    )
    p.add_argument("-q", "--query", help="query text")
    p.add_argument("-f", "--file", help="file containing the query")
    p.add_argument("--doc", action="append",
                   help="load a document: name=path (repeatable)")
    p.add_argument("--store", help="load a saved store directory")
    p.add_argument("--json", action="store_true",
                   help="emit the full report as JSON")
    p.add_argument("--trace-out", metavar="FILE",
                   help="write a Chrome trace (chrome://tracing) to FILE")
    _add_planner_args(p)
    p.set_defaults(fn=_cmd_profile)

    e = sub.add_parser("explain", help="show the compiled plan with "
                                       "cardinality estimates")
    e.add_argument("-q", "--query", help="query text")
    e.add_argument("-f", "--file", help="file containing the query")
    e.add_argument("--doc", action="append",
                   help="load a document: name=path (repeatable)")
    e.add_argument("--store", help="load a saved store directory")
    e.add_argument("--analyze", action="store_true",
                   help="execute the plan and show estimated vs actual "
                        "rows with per-operator q-error")
    e.add_argument("--json", action="store_true",
                   help="emit the plan tree (est_rows, rows, q_error, "
                        "timings) as JSON")
    _add_planner_args(e)
    e.set_defaults(fn=_cmd_explain)

    s = sub.add_parser("save", help="persist documents as a store dir")
    s.add_argument("directory", help="target directory")
    s.add_argument("--doc", action="append", required=True,
                   help="load a document: name=path (repeatable)")
    s.set_defaults(fn=_cmd_save)

    st = sub.add_parser("stats", help="corpus statistics")
    st.add_argument("--doc", action="append",
                    help="load a document: name=path (repeatable)")
    st.add_argument("--store", help="load a saved store directory")
    st.set_defaults(fn=_cmd_stats)

    nx = sub.add_parser("nexi", help="run an INEX/NEXI query")
    nx.add_argument("-q", "--query", help="NEXI query text")
    nx.add_argument("-f", "--file", help="file containing the query")
    nx.add_argument("--doc", action="append",
                    help="load a document: name=path (repeatable)")
    nx.add_argument("--store", help="load a saved store directory")
    nx.add_argument("--top", type=int, default=10, help="top-k cutoff")
    nx.add_argument("--show", action="store_true",
                    help="print a snippet of each hit")
    nx.set_defaults(fn=_cmd_nexi)

    ba = sub.add_parser(
        "batch",
        help="run many queries concurrently over one shared store",
    )
    ba.add_argument("-q", "--query", action="append",
                    help="query text (repeatable)")
    ba.add_argument("-f", "--file",
                    help="JSON array of queries, or text blocks separated "
                         "by lines containing only ---")
    ba.add_argument("--doc", action="append",
                    help="load a document: name=path (repeatable)")
    ba.add_argument("--store", help="load a saved store directory")
    ba.add_argument("--workers", type=int, metavar="N",
                    help="thread-pool width (default: auto)")
    ba.add_argument("--timeout", type=float, metavar="MS",
                    help="per-query wall-clock deadline in milliseconds")
    ba.add_argument("--max-rows", type=int, metavar="N",
                    help="per-query output-row budget")
    ba.add_argument("--no-degrade", action="store_true",
                    help="record guard trips as per-query failures "
                         "instead of partial truncated results")
    ba.add_argument("--no-cache", action="store_true",
                    help="disable the shared plan/result cache")
    ba.add_argument("--json", action="store_true",
                    help="emit the batch report as JSON")
    ba.set_defaults(fn=_cmd_batch)

    b = sub.add_parser("bench", help="regenerate a paper table")
    b.add_argument("table", choices=[
        "table1", "table2", "table3", "table4", "table5", "pick",
        "quality", "planner",
    ])
    b.add_argument("--scale", type=float, default=1.0,
                   help="scale planted term frequencies (default 1.0)")
    b.add_argument("--runs", type=int, default=5,
                   help="timing repetitions (paper protocol: 5)")
    b.add_argument("--profile", action="store_true",
                   help="add a per-access-method metric breakdown per "
                        "cell (one extra instrumented run each)")
    b.set_defaults(fn=_cmd_bench)

    sv = sub.add_parser(
        "serve",
        help="expose an OpenMetrics /metrics endpoint (plus /healthz "
             "and /varz) for a loaded store",
    )
    sv.add_argument("--doc", action="append",
                    help="load a document: name=path (repeatable)")
    sv.add_argument("--store", help="load a saved store directory")
    sv.add_argument("--host", default="127.0.0.1",
                    help="bind address (default 127.0.0.1)")
    sv.add_argument("--port", type=int, default=9184,
                    help="bind port (default 9184; 0 = ephemeral)")
    sv.add_argument("-q", "--query", action="append",
                    help="warmup query run once at startup to populate "
                         "the metrics (repeatable)")
    sv.add_argument("-f", "--file",
                    help="file of warmup queries (tix batch format)")
    sv.add_argument("--snapshot-interval", type=float, default=1.0,
                    metavar="S",
                    help="time-series sampling period in seconds "
                         "(default 1.0)")
    sv.add_argument("--snapshot-capacity", type=int, default=600,
                    metavar="N",
                    help="time-series ring slots kept (default 600)")
    sv.add_argument("--audit-log", metavar="FILE",
                    help="append one JSONL audit record per query "
                         "to FILE")
    sv.add_argument("--sample-rate", type=float, default=1.0,
                    metavar="P",
                    help="audit-log sampling probability (default 1.0)")
    sv.add_argument("--slow-ms", type=float, default=None, metavar="MS",
                    help="force-log queries slower than MS even when "
                         "sampled out")
    sv.add_argument("--query-port", type=int, default=None, metavar="N",
                    help="also serve the wire-protocol query endpoint "
                         "on this port (0 = ephemeral)")
    sv.add_argument("--max-inflight", type=int, default=8, metavar="N",
                    help="admission control: concurrent queries "
                         "executing at once (default 8)")
    sv.add_argument("--queue-timeout-ms", type=float, default=1000.0,
                    metavar="MS",
                    help="admission control: how long a request may "
                         "queue before a typed OVERLOADED rejection "
                         "(default 1000)")
    sv.add_argument("--max-timeout", type=float, default=None,
                    metavar="MS",
                    help="cap every remote query's deadline at MS even "
                         "if the client asks for more")
    sv.add_argument("--no-query-cache", action="store_true",
                    help="serve queries without the result/plan cache")
    sv.add_argument("--drain-timeout", type=float, default=5.0,
                    metavar="S",
                    help="on shutdown, wait up to S seconds for "
                         "in-flight queries to finish (default 5)")
    sv.add_argument("--trace-capacity", type=int, default=256,
                    metavar="N",
                    help="retained distributed traces kept before "
                         "oldest-first eviction (default 256)")
    sv.add_argument("--trace-slow-ms", type=float, default=250.0,
                    metavar="MS",
                    help="tail retention: always keep traces slower "
                         "than MS (default 250)")
    sv.add_argument("--trace-sample", type=float, default=0.0,
                    metavar="P",
                    help="head-sample rate for fast successful traces "
                         "(default 0.0 — keep only the tail)")
    sv.set_defaults(fn=_cmd_serve)

    cl = sub.add_parser(
        "client",
        help="query a running `tix serve --query-port` server over "
             "the wire protocol",
    )
    cl.add_argument("--host", default="127.0.0.1",
                    help="server address (default 127.0.0.1)")
    cl.add_argument("--port", type=int, required=True,
                    help="server query port")
    cl.add_argument("-q", "--query", help="query text")
    cl.add_argument("-f", "--file", help="file containing the query")
    cl.add_argument("--timeout", type=float, metavar="MS",
                    help="server-side wall-clock deadline in "
                         "milliseconds")
    cl.add_argument("--max-rows", type=int, metavar="N",
                    help="server-side output-row budget")
    cl.add_argument("--no-degrade", action="store_true",
                    help="abort on a guard trip (typed error) instead "
                         "of returning partial results")
    cl.add_argument("--scores", action="store_true",
                    help="serialize node scores as attributes")
    cl.add_argument("--call-timeout", type=float, default=30.0,
                    metavar="S",
                    help="client-side socket timeout per call "
                         "(default 30)")
    cl.add_argument("--ping", action="store_true",
                    help="health-check the server and exit")
    cl.add_argument("--stats", action="store_true",
                    help="print the server's admission statistics")
    cl.add_argument("--json", action="store_true",
                    help="emit the response as JSON")
    cl.set_defaults(fn=_cmd_client)

    lt = sub.add_parser(
        "loadtest",
        help="drive a running query server with a concurrent client "
             "fleet and report the outcome mix",
    )
    lt.add_argument("--host", default="127.0.0.1",
                    help="server address (default 127.0.0.1)")
    lt.add_argument("--port", type=int, required=True,
                    help="server query port")
    lt.add_argument("-q", "--query", action="append",
                    help="query text (repeatable; requests round-robin "
                         "over the set)")
    lt.add_argument("-f", "--file",
                    help="file of queries (tix batch format)")
    lt.add_argument("--clients", type=int, default=8,
                    help="concurrent client workers (default 8)")
    lt.add_argument("--total", type=int, default=64,
                    help="total requests to send (default 64)")
    lt.add_argument("--timeout", type=float, metavar="MS",
                    help="per-request server-side deadline")
    lt.add_argument("--max-rows", type=int, metavar="N",
                    help="per-request server-side row budget")
    lt.add_argument("--no-degrade", action="store_true",
                    help="request strict (non-degrading) execution")
    lt.add_argument("--call-timeout", type=float, default=30.0,
                    metavar="S",
                    help="client-side socket timeout per call "
                         "(default 30)")
    lt.add_argument("--seed", type=int, default=0,
                    help="retry-jitter RNG seed (default 0)")
    lt.add_argument("--json", action="store_true",
                    help="emit the report as JSON")
    lt.set_defaults(fn=_cmd_loadtest)

    tp = sub.add_parser(
        "top",
        help="live view of a running `tix serve`: polls /varz and "
             "/traces for admission, latency, and trace tables",
    )
    tp.add_argument("--host", default="127.0.0.1",
                    help="server address (default 127.0.0.1)")
    tp.add_argument("--port", type=int, default=9184,
                    help="the *metrics* port of tix serve, not the "
                         "query port (default 9184)")
    tp.add_argument("--interval", type=float, default=2.0, metavar="S",
                    help="refresh period in seconds (default 2)")
    tp.add_argument("--iterations", type=int, default=0, metavar="N",
                    help="refresh N times then exit (default 0 = "
                         "until Ctrl-C)")
    tp.add_argument("--limit", type=int, default=10, metavar="N",
                    help="rows per trace table (default 10)")
    tp.add_argument("--call-timeout", type=float, default=5.0,
                    metavar="S",
                    help="HTTP timeout per poll (default 5)")
    tp.add_argument("--plain", action="store_true",
                    help="append refreshes instead of redrawing the "
                         "screen (for logs and CI)")
    tp.set_defaults(fn=_cmd_top)

    tr = sub.add_parser(
        "trace",
        help="fetch, inspect, or export distributed traces (from a "
             "saved JSON file or a live server)",
    )
    tr.add_argument("file", nargs="?",
                    help="a saved trace JSON file (e.g. "
                         "`tix trace --server … --id … --json > FILE`)")
    tr.add_argument("--server", metavar="HOST:PORT",
                    help="fetch from a running server's *query* port "
                         "over the wire protocol")
    tr.add_argument("--id", metavar="TRACE_ID",
                    help="one trace's full span tree; without it, the "
                         "in-flight/retained listing")
    tr.add_argument("--limit", type=int, default=20, metavar="N",
                    help="listing rows (default 20)")
    tr.add_argument("--chrome-out", metavar="FILE",
                    help="write the trace in Chrome traceEvents format "
                         "(needs --id or a single-trace FILE)")
    tr.add_argument("--call-timeout", type=float, default=30.0,
                    metavar="S",
                    help="client-side socket timeout per call "
                         "(default 30)")
    tr.add_argument("--json", action="store_true",
                    help="emit the raw JSON payload")
    tr.set_defaults(fn=_cmd_trace)

    ev = sub.add_parser(
        "events",
        help="inspect a query audit log (JSONL, written by "
             "--audit-log or repro.obs.events)",
    )
    ev.add_argument("file", help="audit-log file to read")
    ev.add_argument("--outcome", choices=["ok", "truncated", "error"],
                    help="keep only this outcome")
    ev.add_argument("--kind", help="keep only this query kind "
                                   "(e.g. query, batch)")
    ev.add_argument("--min-wall", type=float, metavar="MS",
                    help="keep only queries at least this slow")
    ev.add_argument("--slow-only", action="store_true",
                    help="keep only slow-threshold force-logged queries")
    ev.add_argument("--limit", type=int, metavar="N",
                    help="show only the last N matching events")
    ev.add_argument("--json", action="store_true",
                    help="print raw JSON records instead of the "
                         "human-readable table")
    ev.set_defaults(fn=_cmd_events)

    fb = sub.add_parser(
        "feedback",
        help="aggregate an audit log into a misestimation report "
             "(worst operators and query shapes by median q-error)",
    )
    fb.add_argument("file", help="audit-log JSONL file to read")
    fb.add_argument("--min-count", type=int, default=1, metavar="N",
                    help="hide operators/shapes seen fewer than N times "
                         "(default 1)")
    fb.add_argument("--limit", type=int, default=10, metavar="N",
                    help="show the N worst entries per section "
                         "(default 10)")
    fb.add_argument("--json", action="store_true",
                    help="emit the full report as JSON")
    fb.add_argument("--corrections", action="store_true",
                    help="emit per-operator cardinality correction "
                         "factors as JSON (feed back with tix query "
                         "--feedback FILE)")
    fb.set_defaults(fn=_cmd_feedback)

    ln = sub.add_parser(
        "lint",
        help="run the engine invariant linter over the source tree",
    )
    ln.add_argument("path", nargs="?", default=None,
                    help="source root to lint (default: the directory "
                         "containing the importable repro package)")
    ln.add_argument("--rule", action="append", metavar="NAME",
                    help="run only this rule (repeatable; see "
                         "--list-rules)")
    ln.add_argument("--json", action="store_true",
                    help="emit the versioned JSON report")
    ln.add_argument("--fail-on", choices=["warning", "error"],
                    default="error",
                    help="exit 1 when findings of at least this "
                         "severity exist (default: error)")
    ln.add_argument("--list-rules", action="store_true",
                    help="list registered rules and exit")
    ln.add_argument("--verbose", action="store_true",
                    help="also show suppressed findings")
    ln.set_defaults(fn=_cmd_lint)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    # Patch locks before any engine object exists so every lock the
    # run creates is instrumented (no-op unless TIX_LOCK_SANITIZER=1).
    from repro.analysis.sanitizer import install_from_env

    install_from_env()
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except TIXError as exc:
        # engine errors (syntax, compile, persistence, …) are expected
        # failure modes: render the message, not a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # ``tix … | head`` closes stdout early — a normal way to
        # consume listing output, not a failure.  Repoint stdout at
        # devnull so the interpreter's exit flush doesn't raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
