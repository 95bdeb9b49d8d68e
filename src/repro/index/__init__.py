"""Index structures over the XML store.

- :mod:`repro.index.inverted`: the positional inverted term index, the
  only one.  Each posting records the document, the global region
  position (which nests inside every ancestor element's region), the
  element whose direct text holds the word, and the word's offset within
  that element's text — everything TermJoin and PhraseFinder need — and
  postings travel as four parallel int columns (:class:`PostingColumns`),
  never as records.
- :mod:`repro.index.compress`: a delta + varint codec for those columns;
  no index stores its output.
- :mod:`repro.index.structure`: the structure index — parent pointers,
  child counts, and the element list sorted by start key.  Enhanced
  TermJoin reads child counts here instead of navigating the data, and the
  Comp2 baseline scans the element list.
"""

from repro.index.inverted import InvertedIndex, PostingColumns, PostingList
from repro.index.structure import StructureIndex

__all__ = ["InvertedIndex", "PostingColumns", "PostingList", "StructureIndex"]
