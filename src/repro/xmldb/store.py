"""Multi-document XML store (the "database" of the reproduction).

The store is a catalog of named documents with global node addressing
``(doc_id, node_id)``, lazily-built indexes (the one inverted term
index, the parent/child-count and tag index) and derived statistics.
Like the indexes of a database, they are maintained rather than rebuilt
on a write: adding or removing a document updates the inverted index
and the statistics by that document's share, and drops the structure
index, which is cheap to rebuild on next use.  A structure whose update
raises is dropped and rebuilt on next use, never kept half-updated;
one never built stays unbuilt.

Mutations change shared state in place — the index columns, and the
``doc_id`` of every live :class:`Document` after a removed one — so they
must not overlap reads except through
:class:`~repro.server.admission.StoreGate`, whose writer excludes every
reader.

The store also carries :class:`AccessCounters`, the logical-I/O
accounting used by the benchmark harness to report substrate-independent
cost measures alongside wall-clock time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple, TYPE_CHECKING

from repro import obs as _obs
from repro.errors import DocumentNotFoundError
from repro.xmldb.document import Document
from repro.xmldb.parser import parse_document

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.index.inverted import InvertedIndex
    from repro.index.structure import StructureIndex
    from repro.xmldb.stats import StoreStatistics


@dataclass
class AccessCounters:
    """Logical access counters, incremented by access methods.

    These model the disk-page touches a real system (TIMBER) would pay:
    postings read from the inverted index, node records fetched from the
    element table, and parent/child-index lookups.  Benchmarks report them
    next to wall-clock time so the relative comparison is visible even on
    substrates with very different constants.
    """

    postings_read: int = 0
    nodes_fetched: int = 0
    index_lookups: int = 0
    navigations: int = 0

    def reset(self) -> None:
        """Zero all counters."""
        self.postings_read = 0
        self.nodes_fetched = 0
        self.index_lookups = 0
        self.navigations = 0

    def snapshot(self) -> Dict[str, int]:
        """Current values as a plain dict (for reports)."""
        return {
            "postings_read": self.postings_read,
            "nodes_fetched": self.nodes_fetched,
            "index_lookups": self.index_lookups,
            "navigations": self.navigations,
        }

    def publish(self, recorder=None) -> None:
        """Mirror the current values into the observability metrics
        registry as ``store.*`` gauges (no-op with no collector)."""
        rec = recorder if recorder is not None else _obs.RECORDER
        if not rec.enabled:
            return
        for name, value in self.snapshot().items():
            rec.set_gauge(f"store.{name}", value)


class XMLStore:
    """A catalog of documents plus lazily-built, maintained indexes and
    statistics."""

    def __init__(self) -> None:
        self._documents: List[Document] = []
        self._by_name: Dict[str, int] = {}
        self._inverted: Optional["InvertedIndex"] = None
        self._structure: Optional["StructureIndex"] = None
        self._stats: Optional["StoreStatistics"] = None
        #: Monotonic corpus-version counter, bumped whenever the document
        #: set changes.  The :mod:`repro.perf` caches key every entry on
        #: it, which makes stale answers unreachable by construction.
        self.generation = 0
        self.counters = AccessCounters()

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------

    def load(self, name: str, source: str) -> Document:
        """Parse ``source`` and register it under ``name``."""
        doc = parse_document(source, name=name, doc_id=len(self._documents))
        return self.add_document(doc)

    def add_document(self, doc: Document) -> Document:
        """Register a pre-built document (e.g. from the workload
        generator).  The document's ``doc_id`` must match its slot."""
        if doc.name in self._by_name:
            raise ValueError(f"document {doc.name!r} already loaded")
        expected = len(self._documents)
        if doc.doc_id != expected:
            raise ValueError(
                f"document {doc.name!r} has doc_id {doc.doc_id}, "
                f"expected {expected}"
            )
        self._documents.append(doc)
        self._by_name[doc.name] = doc.doc_id
        self._changed(doc, added=True)
        return doc

    def remove_document(self, name_or_id) -> Document:
        """Unregister a document (by name or id) and return it.

        Remaining documents are renumbered to keep doc_ids dense (the
        ``doc_id == slot`` invariant that global node addressing and the
        index builders rely on), so node addresses from before a removal
        must not be held across it — the generation bump invalidates
        every cache that might.  The returned document keeps its old
        ``doc_id``."""
        doc = self.document(name_or_id)
        del self._documents[doc.doc_id]
        for slot in range(doc.doc_id, len(self._documents)):
            self._documents[slot].doc_id = slot
        self._by_name = {d.name: d.doc_id for d in self._documents}
        self._changed(doc, added=False)
        return doc

    def _changed(self, doc: Document, added: bool) -> None:
        """Bump the generation and update what is built by ``doc``'s
        share.  Each structure is detached while it is updated: if an
        update raises, the error propagates, and that structure and any
        not yet updated stay dropped, to be rebuilt whole on next use."""
        from repro.resilience import faultinject as _fi

        self.generation += 1
        self._structure = None
        index, stats = self._inverted, self._stats
        self._inverted = self._stats = None
        if index is not None:
            _fi.INJECTOR.fire("index.build", n_documents=self.n_documents)
            if added:
                index.append(doc)
            else:
                index.remove(doc.doc_id, doc)
            self._inverted = index
        if stats is not None:
            self._stats = stats.updated(self, doc, added)

    # ------------------------------------------------------------------
    # Catalog access
    # ------------------------------------------------------------------

    def document(self, name_or_id) -> Document:
        """Look up a document by name or id."""
        if isinstance(name_or_id, int):
            try:
                return self._documents[name_or_id]
            except IndexError:
                raise DocumentNotFoundError(
                    f"no document with id {name_or_id}")
        try:
            return self._documents[self._by_name[name_or_id]]
        except KeyError:
            raise DocumentNotFoundError(f"no document named {name_or_id!r}")

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def documents(self) -> Iterator[Document]:
        """All documents in load order."""
        return iter(self._documents)

    @property
    def n_documents(self) -> int:
        return len(self._documents)

    @property
    def n_elements(self) -> int:
        """Total element count across all documents."""
        return sum(len(d) for d in self._documents)

    @property
    def n_words(self) -> int:
        """Total word occurrences across all documents."""
        return sum(d.n_words for d in self._documents)

    # ------------------------------------------------------------------
    # Indexes and statistics (lazy, then maintained)
    # ------------------------------------------------------------------

    @property
    def index(self) -> "InvertedIndex":
        """The positional inverted term index (built on first use)."""
        if self._inverted is None:
            from repro.index.inverted import InvertedIndex

            rec = _obs.RECORDER
            with rec.span("index.build"):
                self._inverted = InvertedIndex.build(self)
            if rec.enabled:
                rec.set_gauge("index.n_terms", self._inverted.n_terms)
        return self._inverted

    @property
    def structure(self) -> "StructureIndex":
        """Parent / child-count / tag index (built on first use).  This is
        the index Enhanced TermJoin consults instead of navigating."""
        if self._structure is None:
            from repro.index.structure import StructureIndex

            with _obs.RECORDER.span("structure.build"):
                self._structure = StructureIndex.build(self)
        return self._structure

    @property
    def stats(self) -> "StoreStatistics":
        """Corpus statistics (term frequencies, fan-out, the level
        histogram) — the estimation catalog of
        :mod:`repro.plan.estimate`.

        Built once, on first use, and then updated by every document
        change, so per-query estimation and ``tix stats`` never repeat
        the full corpus scan.  Full builds are counted in
        ``estimate.catalog_rebuilds``."""
        if self._stats is None:
            from repro.xmldb.stats import StoreStatistics

            rec = _obs.RECORDER
            with rec.span("stats.build"):
                self._stats = StoreStatistics.build(self)
            if rec.enabled:
                rec.count("estimate.catalog_rebuilds")
        return self._stats

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    @classmethod
    def from_sources(cls, sources: Dict[str, str]) -> "XMLStore":
        """Build a store from a mapping ``{name: xml_source}``."""
        store = cls()
        for name, source in sources.items():
            store.load(name, source)
        return store

    def global_node(self, doc_id: int, node_id: int) -> Tuple[Document, int]:
        """Resolve a global node address to ``(document, node_id)``."""
        return self.document(doc_id), node_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"XMLStore({self.n_documents} documents, "
            f"{self.n_elements} elements, {self.n_words} words)"
        )
