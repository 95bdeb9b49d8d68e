"""XML storage substrate: data model, parser, documents, store, statistics.

This package is the "database" underneath the TIX algebra.  It provides:

- a region-encoded node model (:mod:`repro.xmldb.model`): every element gets
  ``(start, end, level)`` keys drawn from a single document-order counter
  that words also consume, so term positions nest inside element regions
  exactly as the structural-join literature assumes;
- an XML parser (:mod:`repro.xmldb.parser`): CPython's expat drives the
  document builder, and entity declarations are refused;
- an in-memory columnar :class:`~repro.xmldb.document.Document` with
  navigation primitives (parent, children, ancestors, descendants, subtree
  text) and serialization;
- a programmatic :class:`~repro.xmldb.builder.DocumentBuilder` used by the
  synthetic-workload generator and by tests;
- a multi-document :class:`~repro.xmldb.store.XMLStore` catalog with
  derived statistics (:mod:`repro.xmldb.stats`).
"""

from repro.xmldb.document import Document, NodeRecord, WordOccurrence
from repro.xmldb.builder import DocumentBuilder
from repro.xmldb.parser import parse_document, parse_fragment
from repro.xmldb.store import XMLStore
from repro.xmldb.text import tokenize_text

__all__ = [
    "Document",
    "NodeRecord",
    "WordOccurrence",
    "DocumentBuilder",
    "parse_document",
    "parse_fragment",
    "XMLStore",
    "tokenize_text",
]
