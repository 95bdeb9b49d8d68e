"""Concurrent corpus mutation under query traffic (the StoreGate
contract): generation-pinned requests never see a torn corpus, and the
index/structure/stats are built in full once, at server start — each
mutation updates them by the changed document's share (or the writer
rebuilds what it dropped), never raced among reader threads."""

import threading

from repro import obs
from repro.errors import DocumentNotFoundError, TIXError
from repro.server import PooledClient, QueryServer
from repro.xmldb.store import XMLStore

BASE_DOC = """<articles>
  <article><title>stable base document</title>
    <body><sec>alpha beta gamma</sec></body>
  </article>
</articles>"""

QUERY_LIVE = 'For $x in document("live.xml")//item Return $x'
QUERY_BASE = 'For $x in document("base.xml")//article Return $x'


def live_doc(n_items: int) -> str:
    items = "".join(
        f"<item><k>v{i}</k></item>" for i in range(n_items)
    )
    return f"<root>{items}</root>"


class TestLiveUpdates:
    def test_generation_pinned_queries_never_see_a_torn_corpus(self):
        store = XMLStore()
        store.load("base.xml", BASE_DOC)
        store.load("live.xml", live_doc(1))
        srv = QueryServer(store, port=0, max_inflight=8).start()

        # expected corpus state per generation, recorded by the single
        # mutator thread: generation -> item count (None = absent)
        expected = {store.generation: 1}
        observations = []
        obs_lock = threading.Lock()
        stop = threading.Event()
        n_mutations = 12

        def mutator():
            count = 1
            for step in range(n_mutations):
                if step % 2 == 0:
                    srv.remove_document("live.xml")
                    expected[store.generation] = None
                else:
                    count += 1
                    srv.add_document("live.xml", live_doc(count))
                    expected[store.generation] = count
            stop.set()

        def reader(worker):
            cl = PooledClient(srv.host, srv.port, call_timeout_s=10.0,
                              seed=worker)
            try:
                while not stop.is_set():
                    try:
                        res = cl.query(QUERY_LIVE)
                        row = ("n", res.generation, res.n_results)
                    except DocumentNotFoundError:
                        row = ("absent", None, None)
                    except TIXError as exc:  # pragma: no cover
                        row = ("error", None, type(exc).__name__)
                    with obs_lock:
                        observations.append(row)
                    # the stable document must stay fully intact at
                    # every instant, whatever the mutator is doing
                    base = cl.query(QUERY_BASE)
                    assert base.n_results == 1
                    assert "stable base document" in base.rows[0].xml
            finally:
                cl.close()

        threads = [threading.Thread(target=reader, args=(w,))
                   for w in range(3)]
        mut = threading.Thread(target=mutator)
        for th in threads:
            th.start()
        mut.start()
        mut.join(30.0)
        for th in threads:
            th.join(30.0)
            assert not th.is_alive()
        assert srv.close(drain_s=2.0)

        kinds = {row[0] for row in observations}
        assert "error" not in kinds, observations
        # every successful answer is internally consistent with the
        # generation it was pinned to: the item count matches what the
        # mutator had (atomically) published as that generation
        checked = 0
        for kind, generation, n in observations:
            if kind != "n":
                continue
            if generation in expected and expected[generation] is not None:
                assert n == expected[generation], (
                    generation, n, expected,
                )
                checked += 1
        # and no generation was observed with two different answers
        by_gen = {}
        for kind, generation, n in observations:
            if kind == "n":
                by_gen.setdefault(generation, set()).add(n)
        assert all(len(v) == 1 for v in by_gen.values()), by_gen

    def test_caches_rebuild_exactly_once_per_generation_bump(self):
        store = XMLStore()
        store.load("base.xml", BASE_DOC)
        store.load("live.xml", live_doc(2))
        col = obs.Collector()
        obs.install(col)
        try:
            srv = QueryServer(store, port=0).start()  # rebuild #1
            stop = threading.Event()
            errors = []

            def reader():
                cl = PooledClient(srv.host, srv.port,
                                  call_timeout_s=10.0)
                try:
                    while not stop.is_set():
                        try:
                            cl.query(QUERY_BASE)
                        except (TIXError, OSError) as exc:
                            errors.append(exc)
                            return
                finally:
                    cl.close()

            threads = [threading.Thread(target=reader)
                       for _ in range(2)]
            for th in threads:
                th.start()
            n_mutations = 6
            for step in range(n_mutations):
                if step % 2 == 0:
                    srv.remove_document("live.xml")
                else:
                    srv.add_document("live.xml", live_doc(step))
            stop.set()
            for th in threads:
                th.join(30.0)
                assert not th.is_alive()
            assert srv.close(drain_s=2.0)
            assert not errors
            snap = col.metrics.snapshot()
            # one eager build at start(); each mutation updates the
            # catalog instead of rebuilding it, and reader threads never
            # trigger (or race) a lazy build
            assert snap.get("estimate.catalog_rebuilds") == 1
        finally:
            obs.uninstall()


def test_cached_plan_for_the_last_document_survives_renumbering():
    """The compiled scan bakes the For path's document id into the plan.
    Removing the first document renumbers the last one; the cached
    answer is keyed on the old generation, so the next run misses,
    compiles against the new id, reads that document's postings alone
    and answers what the oracle answers."""
    from repro.engine.base import plan_nodes
    from repro.perf import QueryCache
    from repro.query import run_query
    from repro.resilience import run_query_guarded

    store = XMLStore.from_sources({
        f"v{n}.xml": ("<vol><art><t>alpha beta</t>"
                      + "<sec>alpha gamma</sec>" * n + "</art></vol>")
        for n in (1, 2, 3)})
    text = ('For $x in document("v3.xml")//art/descendant-or-self::*\n'
            'Score $x using ScoreFooExact($x, {"alpha"}, {"gamma"})\n'
            'Return $x\nSortby(score)')
    cache = QueryCache(store)

    def answer(res):
        return [(t.doc.name, t.node_id, t.score) for t in res.results]

    before = run_query_guarded(store, text, cache=cache)
    assert before.plan is not None
    assert answer(run_query_guarded(store, text, cache=cache)) \
        == answer(before)  # served from the result tier
    store.remove_document("v1.xml")
    assert store.document("v3.xml").doc_id == 1  # renumbered from 2
    after = run_query_guarded(store, text, cache=cache)
    assert after.plan is not None  # recompiled, not the cached answer
    assert answer(after) == answer(before)
    assert {(t.root.source, t.score) for t in after.results} == {
        (t.root.source, t.score) for t in run_query(store, text)
        if t.score > 0}
    scan = next(n for n in plan_nodes(after.plan)
                if n["operator"] == "termjoin-scan")
    assert scan["counters"]["postings_scanned"] == sum(
        len(store.index.postings(t).postings.for_document(1))
        for t in ("alpha", "gamma"))
