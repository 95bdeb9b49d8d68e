"""State machine: a store's maintained index, structure index and
statistics stay equal to from-scratch builds under any sequence of
document changes.

A document add or remove updates the built inverted index and the
statistics catalog by that document's share instead of rebuilding
them.  The machine drives one store through loads, adds, removals at
the first, a middle and the last position, queries (with and without a
:class:`~repro.perf.QueryCache`) and ``save_store``/``load_store``
round trips, and checks after every step that

- the maintained word table, per-term row arrays and every kept posting
  list equal those of ``InvertedIndex.build`` on the same store, and a
  posting list handed out earlier is unchanged;
- the structure index and the statistics equal fresh builds;
- every document answers ``run_query_guarded`` exactly as a store built
  fresh from the same sources does.
"""

import tempfile

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.index.inverted import InvertedIndex
from repro.index.structure import StructureIndex
from repro.perf import QueryCache
from repro.resilience.run import run_query_guarded
from repro.xmldb.parser import parse_document
from repro.xmldb.persist import load_store, save_store
from repro.xmldb.stats import StoreStatistics
from repro.xmldb.store import XMLStore

from .strategies import VOCAB, build_mixed_document, mixed_doc_shapes

#: Document sources: the canonical XML of a generated mixed-content
#: document (it parses back to the same document, so a store rebuilt
#: from it is the oracle).
sources = mixed_doc_shapes.map(lambda shape: build_mixed_document(
    shape).serialize())
terms = st.lists(st.sampled_from(VOCAB), min_size=1, max_size=2,
                 unique=True)


def query_text(name, primary, secondary):
    def term_set(words):
        return "{" + ", ".join(f'"{w}"' for w in words) + "}"

    return (f'For $x in document("{name}")//*/descendant-or-self::* '
            f"Score $x using ScoreFooExact($x, {term_set(primary)}, "
            f"{term_set(secondary)}) Return $x Sortby(score)")


def answers(store, primary, secondary, cache=None):
    return {
        doc.name: [(t.score, t.to_xml(with_scores=True)) for t in
                   run_query_guarded(store, query_text(
                       doc.name, primary, secondary), cache=cache).results]
        for doc in store.documents()
    }


class StoreMaintenance(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.store = XMLStore()
        #: name -> source, in store order: the model a fresh store is
        #: built from
        self.sources = {}
        self.cache = None
        self.handed_out = []
        self.n_named = 0

    def name(self):
        self.n_named += 1
        return f"d{self.n_named}.xml"

    @initialize(xmls=st.lists(sources, min_size=1, max_size=3))
    def start(self, xmls):
        for xml in xmls:
            self.load(xml)
        # built up front, as a server start does, so later steps
        # exercise maintenance rather than a lazy first build
        self.store.index
        self.store.structure
        self.store.stats

    @rule(xml=sources)
    def load(self, xml):
        name = self.name()
        self.store.load(name, xml)
        self.sources[name] = xml

    @rule(xml=sources)
    def add_volume(self, xml):
        name = self.name()
        self.store.add_document(parse_document(
            xml, name=name, doc_id=self.store.n_documents))
        self.sources[name] = xml

    @precondition(lambda self: self.store.n_documents > 0)
    @rule(where=st.sampled_from(["first", "middle", "last"]))
    def remove(self, where):
        n = self.store.n_documents
        slot = {"first": 0, "middle": n // 2, "last": n - 1}[where]
        removed = self.store.remove_document(slot)
        del self.sources[removed.name]

    @rule(primary=terms, secondary=terms)
    def query(self, primary, secondary):
        for term in primary:
            pl = self.store.index.postings(term)
            self.handed_out.append((pl, list(pl)))
        fresh = XMLStore.from_sources(self.sources)
        assert answers(self.store, primary, secondary, self.cache) \
            == answers(fresh, primary, secondary)

    @rule()
    def save_and_load(self):
        with tempfile.TemporaryDirectory() as directory:
            save_store(self.store, directory)
            self.store = load_store(directory)
        self.cache = None
        self.store.index
        self.store.stats

    @rule()
    def enable_cache(self):
        self.cache = QueryCache(self.store)

    @invariant()
    def order_matches_the_model(self):
        assert [d.name for d in self.store.documents()] \
            == list(self.sources)

    @invariant()
    def index_equals_a_fresh_build(self):
        index = self.store._inverted
        if index is None:
            return
        fresh = InvertedIndex.build(self.store)
        assert index._table == fresh._table
        assert index._rows == fresh._rows
        assert index.n_documents == fresh.n_documents
        for term, pl in index._lists.items():
            assert pl.postings == fresh.postings(term).postings
        for pl, rows in self.handed_out:
            assert list(pl) == rows

    @invariant()
    def structure_and_statistics_equal_fresh_builds(self):
        if self.store._structure is not None:
            assert self.store._structure == StructureIndex.build(self.store)
        if self.store._stats is not None:
            assert self.store._stats == StoreStatistics.build(self.store)

    @invariant()
    def answers_equal_a_fresh_store(self):
        fresh = XMLStore.from_sources(self.sources)
        assert answers(self.store, ["red"], ["blue"], self.cache) \
            == answers(fresh, ["red"], ["blue"])


StoreMaintenance.TestCase.settings = settings(
    max_examples=30, stateful_step_count=12, deadline=None)
TestStoreMaintenance = StoreMaintenance.TestCase
