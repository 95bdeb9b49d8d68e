"""Multi-document XML store (the "database" of the reproduction).

The store is a catalog of named documents with global node addressing
``(doc_id, node_id)``, lazily-built indexes (the one inverted term
index, the parent/child-count and tag index) and derived statistics,
all dropped together whenever the document set changes.  It also
carries :class:`AccessCounters`, the logical-I/O accounting used by the
benchmark harness to report substrate-independent cost measures alongside
wall-clock time.
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
    """A catalog of documents plus lazily-built indexes and statistics."""

    def __init__(self) -> None:
        self._documents: List[Document] = []
        self._by_name: Dict[str, int] = {}
        self._inverted: Optional["InvertedIndex"] = None
        self._structure: Optional["StructureIndex"] = None
        self._stats: Optional["StoreStatistics"] = None
        self._stats_generation = -1
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
        self._invalidate()
        return doc

    def remove_document(self, name_or_id) -> Document:
        """Unregister a document (by name or id) and return it.

        Remaining documents are renumbered to keep doc_ids dense (the
        ``doc_id == slot`` invariant that global node addressing and the
        index builders rely on), so node addresses from before a removal
        must not be held across it — the generation bump invalidates
        every cache that might."""
        doc = self.document(name_or_id)
        del self._documents[doc.doc_id]
        for slot in range(doc.doc_id, len(self._documents)):
            self._documents[slot].doc_id = slot
        self._by_name = {d.name: d.doc_id for d in self._documents}
        self._invalidate()
        return doc

    def _invalidate(self) -> None:
        self._inverted = None
        self._structure = None
        self._stats = None
        self.generation += 1

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
    # Indexes and statistics (lazy)
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

        Built at most once per ``store.generation``: the cached copy is
        keyed on the generation counter explicitly (not just cleared by
        ``_invalidate``), so per-query estimation and ``tix stats``
        never repeat the full corpus scan for an unchanged document
        set.  Rebuilds are counted in ``estimate.catalog_rebuilds``."""
        if self._stats is None or self._stats_generation != self.generation:
            from repro.xmldb.stats import StoreStatistics

            rec = _obs.RECORDER
            with rec.span("stats.build"):
                self._stats = StoreStatistics.build(self)
            self._stats_generation = self.generation
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
