"""Single source of truth for the engine's metric names.

Every metric name the engine emits to the :mod:`repro.obs` registry is
declared here, and nowhere else.  Three artifacts are kept in lock-step
by the ``metric-drift`` rule of ``tix lint`` (see
``docs/static-analysis.md``):

1. **code** — every ``rec.count`` / ``rec.observe`` / ``rec.set_gauge``
   call site in ``src/`` must name a cataloged metric (f-string name
   segments are matched as wildcards);
2. **this catalog** — every entry must be emitted by at least one call
   site (no dead entries);
3. **docs** — the metric table in ``docs/observability.md`` is
   *generated* from this module between the :data:`BEGIN_MARK` /
   :data:`END_MARK` markers (``python -m repro.obs.catalog --write``
   refreshes it, ``--check`` verifies it byte-for-byte).

``CATALOG`` maps ``name -> (kind, meaning)``.  A ``*`` segment stands
for a runtime-formatted component (``operator.*.rows`` covers
``operator.sort.rows``, ``operator.limit.rows``, …).  The mapping is a
**plain literal** on purpose: the lint rule reads it with
``ast.literal_eval`` from the tree being checked, so linting never
depends on which copy of the package is importable.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

__all__ = [
    "CATALOG", "KINDS", "BEGIN_MARK", "END_MARK",
    "find", "names", "render_table", "docs_block",
    "check_docs", "sync_docs",
]

#: Metric kinds a catalog entry may declare.
KINDS = ("counter", "gauge", "histogram")

#: The wire-format markers bracketing the generated table in
#: ``docs/observability.md``.
BEGIN_MARK = ("<!-- metric-catalog:begin (generated by "
              "repro.obs.catalog; do not edit by hand) -->")
END_MARK = "<!-- metric-catalog:end -->"

# tix-lint: this mapping is read by AST, keep it a pure literal.
CATALOG: Dict[str, Tuple[str, str]] = {
    # -- score-generating access methods --------------------------------
    "termjoin.runs": ("counter", "TermJoin invocations"),
    "termjoin.postings_scanned": (
        "counter", "postings consumed by the TermJoin merge pass"),
    "termjoin.stack_pushes": (
        "counter", "ancestor-stack pushes (== pops == elements scored)"),
    "termjoin.stack_pops": ("counter", "ancestor-stack pops"),
    "termjoin.elements_scored": ("counter", "elements emitted by TermJoin"),
    "enhancedtermjoin.runs": ("counter", "Enhanced TermJoin invocations"),
    "enhancedtermjoin.postings_scanned": (
        "counter", "postings consumed by the Enhanced TermJoin merge pass"),
    "enhancedtermjoin.stack_pushes": (
        "counter", "ancestor-stack pushes (enhanced variant)"),
    "enhancedtermjoin.stack_pops": (
        "counter", "ancestor-stack pops (enhanced variant)"),
    "enhancedtermjoin.elements_scored": (
        "counter", "elements emitted by Enhanced TermJoin"),
    "phrasefinder.runs": ("counter", "PhraseFinder invocations"),
    "phrasefinder.postings_scanned": (
        "counter", "postings consumed by the phrase intersection"),
    "phrasefinder.offset_comparisons": (
        "counter", "offset-adjacency checks during the intersection"),
    "phrasefinder.candidates_rejected": (
        "counter", "candidate elements dropped when a term breaks the chain"),
    "phrasefinder.phrase_occurrences": (
        "counter", "verified phrase occurrences"),
    "phrasejoin.runs": ("counter", "PhraseJoin invocations"),
    "phrasejoin.stack_pushes": ("counter", "PhraseJoin ancestor-stack pushes"),
    "phrasejoin.stack_pops": ("counter", "PhraseJoin ancestor-stack pops"),
    "phrasejoin.elements_scored": (
        "counter", "elements emitted by PhraseJoin"),
    "pick.runs": ("counter", "Pick invocations"),
    "pick.candidates_considered": ("counter", "candidates judged by DetWorth"),
    "pick.candidates_picked": ("counter", "candidates kept"),
    "pick.candidates_eliminated": ("counter", "candidates dropped"),
    "pick.max_stack_depth": ("histogram", "per-run maximum Pick stack depth"),
    # -- index + store ---------------------------------------------------
    "index.posting_fetches": (
        "counter", "posting-list lookups (InvertedIndex.postings calls)"),
    "index.postings_returned": (
        "counter", "postings handed out by those lookups"),
    "index.bytes_read": (
        "counter",
        "bytes read from the index (nominal 16 B per posting returned)"),
    "index.n_terms": ("gauge", "vocabulary size, set when the index is built"),
    "store.*": (
        "gauge",
        "mirror of the store's logical-I/O AccessCounters at "
        "publish time"),
    "persist.documents_skipped": (
        "counter", "documents skipped by a partial store load"),
    # -- answer cache ----------------------------------------------------
    "cache.result.hits": ("counter", "result-tier cache hits"),
    "cache.result.misses": ("counter", "result-tier cache misses"),
    "cache.result.evictions": ("counter", "result-tier LRU evictions"),
    "cache.result.entries": ("gauge", "result-tier resident entries"),
    "cache.result.weight": ("gauge", "result-tier resident weight (trees)"),
    # -- batch executor --------------------------------------------------
    "batch.queries": ("counter", "queries submitted to execute_batch"),
    "batch.errors": ("counter", "batch queries that failed"),
    "batch.truncated": (
        "counter", "batch queries degraded to partial results"),
    "batch.query_ms": ("histogram", "per-query latency inside batches"),
    # -- engine operators ------------------------------------------------
    "operator.*.rows": ("counter", "rows emitted by each plan operator"),
    "operator.*.time_ms": (
        "histogram", "per-run operator time (inclusive of children)"),
    # -- plan estimation -------------------------------------------------
    "estimate.computed": (
        "counter", "plans annotated by the cardinality estimator"),
    "estimate.qerror": (
        "histogram",
        "per-operator q-error (max(est/actual, actual/est), 1-safe) "
        "observed after execution"),
    "estimate.catalog_rebuilds": (
        "counter",
        "full builds; document changes update the catalog"),
    # -- resilience ------------------------------------------------------
    "guard.checks": (
        "counter", "query-guard tick checks, published once per guarded run"),
    "guard.rows": ("counter", "output rows accounted by the guard"),
    "guard.materialized": (
        "counter", "stored subtrees materialized under the guard"),
    "guard.trips.timeout": (
        "counter", "guard trips: wall-clock deadline exceeded"),
    "guard.trips.rows": ("counter", "guard trips: output-row budget exceeded"),
    "guard.trips.materialized": (
        "counter", "guard trips: materialization budget exceeded"),
    "guard.trips.cancelled": (
        "counter", "guard trips: cancellation token observed"),
    "resilience.retries": ("counter", "transient-I/O retries performed"),
    "resilience.retry_giveups": ("counter", "transient-I/O retries exhausted"),
    "faults.fired.*": (
        "counter", "injected faults per fault point (chaos suite)"),
    # -- telemetry pipeline ----------------------------------------------
    "obs.events.emitted": (
        "counter", "audit-log records written to the sink"),
    "obs.events.sampled_out": (
        "counter", "audit-log records dropped by the sampling rate"),
    "obs.events.slow_forced": (
        "counter",
        "audit-log records kept by the slow-query threshold despite "
        "losing the sampling draw"),
    # -- query serving (wire protocol) -----------------------------------
    "server.connections": (
        "counter", "client connections accepted by the query server"),
    "server.requests.*": (
        "counter",
        "wire-protocol requests per op (query/ping/stats/traces, "
        "other for an unknown op)"),
    "server.request_ms": (
        "histogram", "wire-protocol request handling latency"),
    "server.admitted": (
        "counter", "requests admitted past admission control"),
    "server.rejected.overload": (
        "counter",
        "requests rejected OVERLOADED after queueing past the timeout"),
    "server.rejected.shutdown": (
        "counter", "requests rejected while the server drains"),
    "server.queued_ms": (
        "histogram", "admission-queue wait per admitted request"),
    "server.inflight": (
        "gauge", "requests currently executing under admission"),
    "server.degraded": (
        "counter",
        "requests admitted with tightened budgets under sustained "
        "overload"),
    "server.errors.*": (
        "counter", "typed error responses per wire error code"),
    "client.requests": ("counter", "client logical calls"),
    "client.errors": (
        "counter", "client calls that failed after retries"),
    # -- distributed tracing (trace store) -------------------------------
    "trace.started": (
        "counter",
        "request traces begun (propagated client context or locally "
        "minted root)"),
    "trace.completed": (
        "counter", "request traces completed (retained or dropped)"),
    "trace.inflight": (
        "gauge", "request traces currently in flight"),
    "trace.retained.*": (
        "counter",
        "completed traces promoted by the tail-retention policy, by "
        "reason (slow/error/degraded/sampled)"),
    "trace.dropped": (
        "counter",
        "retained traces evicted from the bounded ring under pressure"),
}


def names() -> Tuple[str, ...]:
    """All cataloged metric names, sorted."""
    return tuple(sorted(CATALOG))


def _unify(a: str, b: str) -> bool:
    """Do two dotted names (either may hold ``*`` segments) describe a
    common concrete metric?  A ``*`` matches one or *more* segments:
    interpolated prefixes carry dots (``f"{self.metric_prefix}.hits"``
    with prefix ``cache.result`` lints as ``*.hits``), so the
    wildcard must be able to span them."""
    sa, sb = a.split("."), b.split(".")

    def go(i: int, j: int) -> bool:
        if i == len(sa) and j == len(sb):
            return True
        if i == len(sa) or j == len(sb):
            return False
        x, y = sa[i], sb[j]
        if (x == "*" or y == "*" or x == y) and go(i + 1, j + 1):
            return True
        if x == "*" and go(i, j + 1):
            return True
        if y == "*" and go(i + 1, j):
            return True
        return False

    return go(0, 0)


def find(name: str, kind: Optional[str] = None) -> Optional[str]:
    """The catalog entry covering ``name`` (itself possibly a wildcard
    pattern), or ``None``.  With ``kind``, only entries of that kind
    match."""
    for entry, (entry_kind, _doc) in CATALOG.items():
        if kind is not None and entry_kind != kind:
            continue
        if _unify(name, entry):
            return entry
    return None


# ----------------------------------------------------------------------
# Docs generation (docs/observability.md)
# ----------------------------------------------------------------------

def render_table(catalog: Optional[Dict[str, Tuple[str, str]]] = None) -> str:
    """The metric table as GitHub markdown, one row per entry, sorted.

    ``catalog`` defaults to :data:`CATALOG`; the lint rule passes the
    mapping it parsed out of the tree under check instead.
    """
    cat = CATALOG if catalog is None else catalog
    lines = ["| name | kind | meaning |", "|---|---|---|"]
    for name in sorted(cat):
        kind, doc = cat[name]
        lines.append(f"| `{name}` | {kind} | {doc} |")
    return "\n".join(lines)


def docs_block(catalog: Optional[Dict[str, Tuple[str, str]]] = None) -> str:
    """The full generated region, markers included."""
    return f"{BEGIN_MARK}\n{render_table(catalog)}\n{END_MARK}"


def check_docs(text: str,
               catalog: Optional[Dict[str, Tuple[str, str]]] = None,
               ) -> Optional[str]:
    """Verify ``text`` (the docs file contents) embeds the generated
    block exactly.  Returns an error message, or ``None`` when in sync."""
    begin = text.find(BEGIN_MARK)
    end = text.find(END_MARK)
    if begin < 0 or end < 0:
        return (
            "metric-catalog markers not found; add the generated block "
            "with `python -m repro.obs.catalog --write <file>`"
        )
    have = text[begin:end + len(END_MARK)]
    want = docs_block(catalog)
    if have != want:
        return (
            "metric table is stale; regenerate with "
            "`python -m repro.obs.catalog --write <file>`"
        )
    return None


def sync_docs(path: str) -> bool:
    """Rewrite the generated block in the docs file at ``path``.
    Returns ``True`` when the file changed."""
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    begin = text.find(BEGIN_MARK)
    end = text.find(END_MARK)
    if begin < 0 or end < 0:
        raise ValueError(f"{path}: metric-catalog markers not found")
    updated = text[:begin] + docs_block() + text[end + len(END_MARK):]
    if updated == text:
        return False
    with open(path, "w", encoding="utf-8") as f:
        f.write(updated)
    return True


def _main(argv: Optional[list] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.catalog",
        description="check or regenerate the metric table in the docs",
    )
    parser.add_argument("path", help="docs file holding the generated block "
                                     "(e.g. docs/observability.md)")
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--check", action="store_true",
                       help="verify the block matches the catalog")
    group.add_argument("--write", action="store_true",
                       help="rewrite the block from the catalog")
    args = parser.parse_args(argv)
    if args.write:
        changed = sync_docs(args.path)
        print(f"{args.path}: {'updated' if changed else 'already in sync'}")
        return 0
    with open(args.path, "r", encoding="utf-8") as f:
        problem = check_docs(f.read())
    if problem:
        print(f"{args.path}: {problem}")
        return 1
    print(f"{args.path}: in sync")
    return 0


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(_main())
