"""Work-counter gate: the exact, noise-free counters of Tables 1–5.

Wall clock moves with the host; these numbers do not.  Every run of an
access method at a fixed small scale must scan the same postings, push
the same stack entries, compare the same offsets and touch the same
index/store counters as the pinned snapshot — so a "faster" kernel that
is faster because it does *different* work fails here, and a CI run can
fail on it (the snapshot was generated on the commit before the columnar
posting layout landed, then left untouched by it).  Refresh
intentionally with::

    PYTHONPATH=src pytest tests/golden --update-golden
"""

import pytest

from repro import obs
from repro.access.phrasefinder import PhraseFinder
from repro.access.termjoin import EnhancedTermJoin, TermJoin
from repro.core.scoring import ProximityScorer, WeightedCountScorer
from repro.workload import (
    generate_corpus,
    table123_spec,
    table4_spec,
    table5_spec,
)

pytestmark = pytest.mark.golden

SCALE = 0.02
N_ARTICLES = 60

#: Recorder counters pinned next to each method's ``last_stats``.
INDEX_COUNTERS = ("index.posting_fetches", "index.postings_returned")


def counted(store, method, terms):
    """``last_stats`` + index recorder counts + ``store.counters`` deltas
    of one ``method.run(terms)``."""
    store.counters.reset()
    with obs.collecting() as col:
        method.run(list(terms))
    snap = col.metrics.snapshot()
    work = dict(method.last_stats)
    work.update({name: snap.get(name, 0) for name in INDEX_COUNTERS})
    work.update({f"store.{name}": value
                 for name, value in store.counters.snapshot().items()})
    return work


def complex_rows(store, rows):
    out = {}
    for row in rows:
        scorer = ProximityScorer(row.terms)
        out[str(row.label)] = {
            cls.name: counted(store, cls(store, scorer, True), row.terms)
            for cls in (TermJoin, EnhancedTermJoin)
        }
    return out


def test_work_counters(golden):
    spec, rows123 = table123_spec(scale=SCALE, n_articles=N_ARTICLES)
    store = generate_corpus(spec)
    store.index, store.structure  # builds stay out of the counters
    out = {"table1": {}}
    for row in rows123["table1"]:
        scorer = WeightedCountScorer([row.terms[0]], row.terms[1:])
        out["table1"][str(row.label)] = {
            "TermJoin": counted(store, TermJoin(store, scorer), row.terms)}
    out["table2"] = complex_rows(store, rows123["table1"])
    out["table3"] = complex_rows(store, rows123["table3"])

    spec, rows4 = table4_spec(scale=SCALE, n_articles=N_ARTICLES)
    store4 = generate_corpus(spec)
    store4.index, store4.structure
    out["table4"] = complex_rows(store4, rows4)

    spec, rows5 = table5_spec(scale=SCALE, n_articles=N_ARTICLES)
    store5 = generate_corpus(spec)
    store5.index
    out["table5"] = {
        str(row.query): {
            "PhraseFinder": counted(store5, PhraseFinder(store5), row.terms)}
        for row in rows5
    }
    golden("work_counters", out)
