"""Index structures over the XML store.

- :mod:`repro.index.inverted`: the positional inverted term index.  Each
  posting records the document, the global region position (which nests
  inside every ancestor element's region), the element whose direct text
  holds the word, and the word's offset within that element's text —
  everything TermJoin and PhraseFinder need — and postings travel as
  four parallel int columns (:class:`PostingColumns`), never as records.
- :mod:`repro.index.structure`: the structure index — parent pointers,
  child counts, and per-tag element lists sorted by start key.  Enhanced
  TermJoin reads child counts here instead of navigating the data, and the
  structural-join baselines scan the per-tag element lists.
"""

from repro.index.inverted import InvertedIndex, PostingColumns, PostingList
from repro.index.structure import StructureIndex

__all__ = ["InvertedIndex", "PostingColumns", "PostingList", "StructureIndex"]
