"""Differential tests: every way into the execution pipeline gives one
answer.

:func:`run_query_guarded` is the only function that stages a served
query; ``execute_batch`` and :class:`QueryServer` are callers of it.
For each seeded (corpus, query) — the compilable pipeline path
(``ScoreFooExact``) and the evaluator fallback (``ScoreFoo`` has no
compiler lowering) — the answer must be indistinguishable across

- cache state: none, cold, warm (plan tier, result tier);
- guard: none, a strict row budget, a degrading row budget;
- front door: direct call, batch executor, loopback server;
- the postings LRU / compressed index on and off underneath:

same scores, same source node ids, same serialized trees, same order,
same truncation flag — and exactly one audit record per query with the
same ``cache`` / ``plan_cache`` / ``ops`` fields.
"""

import io
import random

import pytest

from repro.engine.base import explain
from repro.errors import ResourceExhaustedError
from repro.obs import events
from repro.perf import QueryCache, execute_batch
from repro.resilience import NullGuard, QueryGuard, run_query_guarded
from repro.server import PooledClient, QueryServer
from repro.xmldb.store import XMLStore

from tests.conftest import build_random_document

pytestmark = pytest.mark.differential

SEEDS = [7, 21, 99]


def seeded_store(seed: int, *, compress: bool = False,
                 postings_cache: bool = False) -> XMLStore:
    rng = random.Random(seed)
    store = XMLStore()
    for d in range(3):
        store.add_document(build_random_document(
            rng, 60, doc_id=d, name=f"diff{d}.xml"
        ))
    if compress:
        store.enable_index_compression()
    if postings_cache:
        store.enable_postings_cache(capacity=10_000)
    return store


def compilable_query(doc: str = "diff0.xml") -> str:
    return (
        f'For $x in document("{doc}")//root/descendant-or-self::* '
        'Score $x using ScoreFooExact($x, {"red"}, {"green"}) '
        "Return $x Sortby(score)"
    )


def evaluator_query(doc: str = "diff0.xml") -> str:
    # ScoreFoo has no register_score_factory lowering, so this takes the
    # reference-evaluator path in both the cache and the uncached run.
    return (
        f'For $x in document("{doc}")//root/descendant-or-self::* '
        'Score $x using ScoreFoo($x, {"red"}, {"green"}) '
        "Return $x Sortby(score)"
    )


def fingerprint(results):
    """Order-preserving identity: score, source node id, full tree."""
    return [
        (t.score, getattr(t.root, "source", None),
         t.to_xml(with_scores=True))
        for t in results
    ]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("query_fn", [compilable_query, evaluator_query],
                         ids=["compiled", "evaluator"])
@pytest.mark.parametrize("compress,postings_cache",
                         [(False, False), (True, False),
                          (False, True), (True, True)],
                         ids=["plain", "compressed", "lru", "lru+compressed"])
def test_cached_equals_uncached(seed, query_fn, compress, postings_cache):
    source = query_fn()
    uncached_store = seeded_store(seed)
    reference = fingerprint(
        run_query_guarded(uncached_store, source).results
    )

    store = seeded_store(seed, compress=compress,
                         postings_cache=postings_cache)
    cache = QueryCache(store)
    cold = run_query_guarded(store, source, cache=cache)  # fills both
    warm = run_query_guarded(store, source, cache=cache)  # result hit
    assert fingerprint(cold.results) == reference
    assert fingerprint(warm.results) == reference
    assert cache.results.hits == 1
    assert warm.plan is None and warm.compile_error == ""

    plan_only = QueryCache(store, results=False)
    run_query_guarded(store, source, cache=plan_only)
    plan_warm = run_query_guarded(store, source, cache=plan_only)
    assert fingerprint(plan_warm.results) == reference
    assert plan_only.plans.hits == 1  # plan (or no-plan verdict) reused


@pytest.mark.parametrize("seed", SEEDS)
def test_normalized_spellings_share_results(seed):
    """Whitespace-different spellings of one query normalize to one cache
    entry and return the same answer as their uncached runs."""
    store = seeded_store(seed)
    cache = QueryCache(store)
    q1 = compilable_query()
    q2 = q1.replace(" Score", "\n   Score").replace(" Return", "\n Return")
    a = fingerprint(run_query_guarded(store, q1, cache=cache).results)
    b = fingerprint(run_query_guarded(store, q2, cache=cache).results)
    assert a == b
    assert len(cache.results._lru) == 1  # one normalized entry
    uncached = fingerprint(
        run_query_guarded(seeded_store(seed), q2).results
    )
    assert b == uncached


# ----------------------------------------------------------------------
# One pipeline: cache state × guard × front door
# ----------------------------------------------------------------------

#: Row budget of the guarded runs; every seeded answer is larger.
K = 2

GUARDS = {
    "none": dict(max_rows=None, degrade=True),
    "strict": dict(max_rows=K, degrade=False),
    "degrade": dict(max_rows=K, degrade=True),
}


def make_cache(store, state, source):
    """A cache in ``state``: ``none``, ``cold`` (fresh) or ``warm``
    (one complete unguarded run already through it)."""
    if state == "none":
        return None
    cache = QueryCache(store)
    if state == "warm":
        run_query_guarded(store, source, cache=cache)
    return cache


def rows_of(trees):
    """What every front door can report, the wire included."""
    return [(t.score, t.to_xml(with_scores=True)) for t in trees]


def audited(call):
    """Run ``call`` with the audit sink on; return ``(its value, the
    path-independent fields of the ONE record it emitted)``."""
    buf = io.StringIO()
    with events.logging_queries(buf):
        value = call()
    records = list(events.iter_events(io.StringIO(buf.getvalue())))
    assert len(records) == 1, records
    r = records[0]
    return value, {k: r[k] for k in (
        "outcome", "rows", "truncated", "error_type", "cache",
        "plan_cache", "ops",
    )}


def direct(store, source, cache, max_rows, degrade):
    guard = (NullGuard() if max_rows is None
             else QueryGuard(max_rows=max_rows, degrade=degrade))
    try:
        res = run_query_guarded(store, source, guard, cache=cache)
    except ResourceExhaustedError as exc:
        return type(exc).__name__
    return rows_of(res.results), res.truncated


def batched(store, source, cache, max_rows, degrade):
    (outcome,) = execute_batch(store, [source], cache=cache,
                               max_rows=max_rows, degrade=degrade)
    if not outcome.ok:
        return outcome.error_type
    return rows_of(outcome.results), outcome.truncated


def served(server, client, source, cache, max_rows, degrade):
    server.cache = cache
    try:
        res = client.query(source, max_rows=max_rows, degrade=degrade,
                           with_scores=True)
    except ResourceExhaustedError as exc:
        return type(exc).__name__
    return [(r.score, r.xml) for r in res.rows], res.truncated


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("query_fn", [compilable_query, evaluator_query],
                         ids=["compiled", "evaluator"])
def test_every_front_door_runs_the_one_pipeline(seed, query_fn):
    source = query_fn()
    store = seeded_store(seed)
    full = run_query_guarded(store, source).results
    assert len(full) > K
    expected = {
        "none": (rows_of(full), False),
        "strict": "ResourceExhaustedError",
        "degrade": (rows_of(full[:K]), True),
    }
    with QueryServer(store, port=0) as server, \
            PooledClient(server.host, server.port,
                         call_timeout_s=30.0) as client:
        doors = {
            "direct": lambda *a: direct(store, source, *a),
            "batch": lambda *a: batched(store, source, *a),
            "server": lambda *a: served(server, client, source, *a),
        }
        for state in ("none", "cold", "warm"):
            for mode, budget in GUARDS.items():
                audits = {}
                for door, run in doors.items():
                    cache = make_cache(store, state, source)
                    got, audits[door] = audited(
                        lambda: run(cache, budget["max_rows"],
                                    budget["degrade"]))
                    assert got == expected[mode], (state, mode, door)
                    if cache is not None and cache.results is not None:
                        # only complete answers are ever stored
                        stored = len(cache.results)
                        assert stored == (
                            1 if state == "warm" or mode == "none" else 0
                        ), (state, mode, door)
                assert audits["batch"] == audits["direct"], (state, mode)
                assert audits["server"] == audits["direct"], (state, mode)
                tier = {"none": "", "cold": "miss", "warm": "hit"}[state]
                assert audits["direct"]["cache"] == tier
                assert audits["direct"]["plan_cache"] == (
                    "miss" if state == "cold" else "")


@pytest.mark.parametrize("seed", SEEDS)
def test_planner_options_bypass_both_cache_tiers(seed):
    """The cache key cannot see planner options (or a registry), so a
    run that passes any is never answered from, or stored in, a tier."""
    from repro.query.functions import default_registry

    store = seeded_store(seed)
    source = compilable_query()
    cache = make_cache(store, "warm", source)
    before = cache.stats()
    reference = fingerprint(run_query_guarded(store, source).results)

    hint = {"score": "Comp2"}
    (forced, audit) = audited(lambda: run_query_guarded(
        store, source, cache=cache, force_ops=hint))
    assert "Comp2" in explain(forced.plan)  # compiled here, as asked
    assert fingerprint(forced.results) == fingerprint(
        run_query_guarded(store, source, force_ops=hint).results)
    assert audit["cache"] == "" and audit["plan_cache"] == ""

    custom = run_query_guarded(store, source, cache=cache,
                               registry=default_registry())
    assert fingerprint(custom.results) == reference
    assert cache.stats() == before  # no probe, no store, no check-out
    assert len(cache.plans) == 1 and len(cache.results) == 1
