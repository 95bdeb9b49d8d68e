"""Chaos tests for persistence: seeded probabilistic faults on every I/O
point, asserting the save/load paths either succeed (transient faults
absorbed by retries) or fail with a clean ``PersistError`` — never a raw
``OSError`` and never a half-written store.  The index fault point also
covers index maintenance: a write that faults never leaves a
half-updated index."""

import os

import pytest

from repro import obs
from repro.errors import PersistError
from repro.exampledata import ARTICLES_XML, REVIEWS_XML, example_store
from repro.index.inverted import InvertedIndex
from repro.resilience import FaultInjector, FaultSpec, injecting
from repro.resilience.run import run_query_guarded
from repro.server import QueryServer
from repro.xmldb.persist import load_store, load_store_report, save_store
from repro.xmldb.stats import StoreStatistics
from repro.xmldb.store import XMLStore

pytestmark = pytest.mark.chaos


class TestTransientFaults:
    def test_save_survives_transient_write_faults(self, tmp_path,
                                                  chaos_seed):
        """Each write point fails at most once; the retry policy (3
        attempts) must absorb every fault and produce a loadable store."""
        store = example_store()
        directory = str(tmp_path / "db")
        specs = [
            FaultSpec("persist.write_doc", probability=0.5, times=1),
            FaultSpec("persist.write_manifest", probability=0.5, times=1),
            FaultSpec("persist.replace", probability=0.5, times=1),
        ]
        with obs.collecting() as col:
            with injecting(specs, seed=chaos_seed) as injector:
                save_store(store, directory)
            n_fired = sum(injector.fired.values())
        loaded = load_store(directory)
        assert loaded.n_documents == store.n_documents
        snap = col.metrics.snapshot()
        assert snap.get("resilience.retries", 0) == n_fired

    def test_load_survives_transient_read_faults(self, tmp_path,
                                                 chaos_seed):
        store = example_store()
        directory = str(tmp_path / "db")
        save_store(store, directory)
        specs = [
            FaultSpec("persist.read_manifest", probability=0.5, times=1),
            FaultSpec("persist.read_doc", probability=0.5, times=1),
        ]
        with injecting(specs, seed=chaos_seed):
            loaded = load_store(directory)
        assert loaded.n_documents == store.n_documents


class TestPersistentFaults:
    def test_persistent_write_fault_is_clean_persist_error(
        self, tmp_path, chaos_seed
    ):
        """A fault that outlives every retry must surface as PersistError
        (not OSError) and must not leave tmp litter behind."""
        store = example_store()
        directory = str(tmp_path / "db")
        spec = FaultSpec("persist.write_doc", probability=1.0)
        with injecting([spec], seed=chaos_seed):
            with pytest.raises(PersistError, match="cannot write"):
                save_store(store, directory)
        assert not [f for f in os.listdir(directory)
                    if f.endswith(".tmp")]
        # no manifest was ever written → loading reports that, cleanly
        with pytest.raises(PersistError, match="no store manifest"):
            load_store(directory)

    def test_persistent_read_fault_partial_load_skips(self, tmp_path,
                                                      chaos_seed):
        store = example_store()
        directory = str(tmp_path / "db")
        save_store(store, directory)
        spec = FaultSpec("persist.read_doc", probability=1.0)
        with injecting([spec], seed=chaos_seed):
            report = load_store_report(directory, partial=True)
        assert report.store.n_documents == 0
        assert len(report.skipped) == store.n_documents
        assert all(isinstance(e, PersistError) for e in report.skipped)

    def test_parse_fault_names_the_file(self, tmp_path, chaos_seed):
        store = example_store()
        directory = str(tmp_path / "db")
        save_store(store, directory)

        def bad_parse(**ctx):
            return ValueError(f"injected parse failure in {ctx['path']}")

        spec = FaultSpec("store.parse_doc", at_calls=(1,),
                         make_error=bad_parse)
        with injecting([spec], seed=chaos_seed):
            with pytest.raises(PersistError, match="cannot parse") as ei:
                load_store(directory)
        assert ei.value.path.endswith("doc00000.xml")


class TestDeterminism:
    def test_same_seed_same_fault_schedule(self, tmp_path, chaos_seed):
        """Two runs with the same seed fire the same faults at the same
        call ordinals — the replay guarantee the suite depends on."""
        store = example_store()
        schedules = []
        for run in range(2):
            directory = str(tmp_path / f"db{run}")
            specs = [
                FaultSpec("persist.write_doc", probability=0.4, times=2),
                FaultSpec("persist.replace", probability=0.3, times=2),
            ]
            with injecting(specs, seed=chaos_seed) as injector:
                save_store(store, directory)
                schedules.append((dict(injector.calls),
                                  dict(injector.fired)))
        assert schedules[0] == schedules[1]

    def test_different_seeds_can_differ(self, tmp_path):
        """Sanity: the schedule is a function of the seed (probability
        0.5 over dozens of draws makes a collision astronomically
        unlikely)."""
        store = example_store()
        fired = []
        for seed in (1, 2, 3, 4):
            directory = str(tmp_path / f"db{seed}")
            injector = FaultInjector(
                [FaultSpec("persist.write_doc", probability=0.5,
                           times=10)],
                seed=seed,
            )
            from repro.resilience import install_faults, uninstall_faults
            install_faults(injector)
            try:
                try:
                    save_store(store, directory)
                except PersistError:
                    pass
            finally:
                uninstall_faults()
            fired.append(sum(injector.fired.values()))
        assert len(set(fired)) > 1

    def test_index_build_fault_point(self, chaos_seed):
        store = example_store()
        spec = FaultSpec("index.build", at_calls=(1,))
        with injecting([spec], seed=chaos_seed):
            with pytest.raises(OSError, match="index.build"):
                store.index.frequency("search")
        # the injector is gone; a fresh build succeeds
        assert store.index.frequency("search") > 0


class TestIndexMaintenanceFaults:
    """A document change updates the built index in place; a fault on
    that path must leave no half-updated index behind."""

    EXTRA_XML = ("<articles><article><title>search engine internet"
                 "</title><sec>search search</sec></article></articles>")

    @staticmethod
    def answers(store):
        out = []
        for name in ("articles.xml", "extra.xml"):
            if name not in store:
                continue
            res = run_query_guarded(store, (
                f'For $x in document("{name}")//article'
                "/descendant-or-self::* "
                'Score $x using ScoreFooExact($x, {"search"}, '
                '{"internet"}) Return $x Sortby(score)'))
            out.append([t.to_xml(with_scores=True) for t in res.results])
        return out

    def test_fault_during_gated_add(self, chaos_seed):
        store = example_store()
        srv = QueryServer(store, port=0).start()
        try:
            spec = FaultSpec("index.build", at_calls=(1,))
            with injecting([spec], seed=chaos_seed) as injector:
                with pytest.raises(OSError, match="index.build"):
                    srv.add_document("extra.xml", self.EXTRA_XML)
            assert injector.fired == {"index.build": 1}
            # the document is in, and the gate rebuilt the dropped
            # index whole: the store answers as one built from scratch
            sources = {"articles.xml": ARTICLES_XML,
                       "reviews.xml": REVIEWS_XML,
                       "extra.xml": self.EXTRA_XML}
            assert self.answers(store) \
                == self.answers(XMLStore.from_sources(sources))
            fresh = InvertedIndex.build(store)
            assert store.index._table == fresh._table
            assert store.index._rows == fresh._rows
            # and later writes maintain it as usual
            srv.remove_document("articles.xml")
            srv.add_document("articles.xml", ARTICLES_XML)
            fresh = InvertedIndex.build(store)
            assert store.index._table == fresh._table
            assert store.index._rows == fresh._rows
            assert store.stats == StoreStatistics.build(store)
            del sources["articles.xml"]
            sources["articles.xml"] = ARTICLES_XML
            assert self.answers(store) \
                == self.answers(XMLStore.from_sources(sources))
        finally:
            srv.close(drain_s=2.0)
