"""LRU postings cache: a caching proxy in front of any inverted index.

:class:`CachingIndex` wraps an :class:`~repro.index.inverted.InvertedIndex`
or :class:`~repro.index.compress.CompressedInvertedIndex` and serves
repeated ``postings(term)`` calls from a size-bounded LRU keyed by term.
It replaces the single most-recent-term cache the compressed index used
to keep internally: the LRU holds the whole working set of a query mix
(capacity is bounded in *postings*, the unit that actually costs
memory), is shared by every query over the store, and is safe under the
batch executor's thread pool.

Accounting contract (the fix for the old double-count):

- ``index.posting_fetches`` counts every logical fetch, hit or miss —
  the cache layer counts it on hits, the wrapped index on misses;
- ``index.postings_returned`` / ``index.bytes_read`` /
  ``index.posting_decodes`` count **cold-path work only** (they are
  emitted by the wrapped index when it is actually consulted), so they
  stay mutually consistent: bytes and decodes explain exactly the
  postings returned by real index reads;
- ``index.cache_hits`` and ``cache.postings.hits/misses/evictions``
  count the warm path.

The cache holds :class:`~repro.index.inverted.PostingList` objects as
the wrapped index returned them — the same posting columns every reader
slices, not a second representation.  They are immutable once built
(documents are append-only until the store's generation bumps, which
discards the index and this wrapper with it), so cached lists are
shared, never copied.  Over the compressed index a hit saves the varint
decode; the plain index keeps a fetched term's columns itself.
"""

from __future__ import annotations

from typing import Any, KeysView, Optional

from repro import obs as _obs
from repro.index.inverted import PostingList, TermIndex
from repro.perf.lru import LRUCache

__all__ = ["CachingIndex", "DEFAULT_POSTINGS_CAPACITY"]

#: Default capacity in *postings*, not terms: 200k postings are 3.2 MB
#: of posting columns (four 4-byte ints each) — generous for the
#: synthetic corpora, tiny next to the store itself.
DEFAULT_POSTINGS_CAPACITY = 200_000


class CachingIndex(TermIndex):
    """Caching proxy over an inverted index (see module docstring).

    The lookup API is :class:`~repro.index.inverted.TermIndex`'s, over
    the cached fetch; anything else (e.g. ``compressed_bytes`` on the
    compressed index) is forwarded via ``__getattr__``.
    """

    def __init__(self, inner: Any,
                 capacity: int = DEFAULT_POSTINGS_CAPACITY) -> None:
        self.inner = inner
        self.cache = LRUCache(capacity, metric_prefix="cache.postings")

    def _fetch(self, term: str) -> Optional[PostingList]:
        cached = self.cache.get(term)
        if cached is not None:
            rec = _obs.RECORDER
            if rec.enabled:
                rec.count("index.posting_fetches")
                rec.count("index.cache_hits")
            return cached
        pl = self.inner._fetch(term)
        # Known terms only: an unknown term stays a miss, so a later
        # strict=True call still reaches the UnknownTermError path.
        if pl is not None:
            self.cache.put(term, pl, weight=max(1, len(pl)))
        return pl

    def _count(self, term: str) -> int:
        return self.inner._count(term)

    def vocabulary(self) -> KeysView[str]:
        return self.inner.vocabulary()

    @property
    def n_documents(self) -> int:
        return self.inner.n_documents

    def __getattr__(self, name: str) -> Any:
        # Anything not overridden (compression stats, future additions)
        # is answered by the wrapped index.
        return getattr(self.inner, name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CachingIndex({self.inner!r}, {self.cache!r})"
