"""Corpus statistics and histograms.

Three consumers:

- the benchmark workload builders, which need per-term corpus frequencies
  to select terms with target frequencies (the paper sweeps term frequency
  from 20 to 10,000);
- the Pick access method, whose auxiliary data (§5.3) is a histogram of
  data IR-node scores that lets a user express "top X% relevant" without
  knowing the absolute score distribution;
- the plan estimator (:mod:`repro.plan.estimate`), which derives
  per-operator cardinality estimates from the term frequencies, the
  fan-out statistics, and the level histogram.  The store keeps one
  :class:`StoreStatistics` per ``store.generation``
  (:meth:`repro.xmldb.store.XMLStore.stats`): built by one corpus scan
  on first use, then replaced on every document change by
  :meth:`StoreStatistics.updated`, which moves the counts by that
  document's share alone.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import (
    Dict, Iterable, List, Sequence, Tuple, TypeVar, TYPE_CHECKING,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.xmldb.document import Document
    from repro.xmldb.store import XMLStore

K = TypeVar("K")


def _shifted(counts: Dict[K, int], keys: Iterable[K],
             sign: int) -> Dict[K, int]:
    """A copy of ``counts`` with each of ``keys`` counted ``sign`` more
    times; a count that reaches zero is deleted, as a fresh build never
    holds one."""
    out = dict(counts)
    for key, n in Counter(keys).items():
        n = out.get(key, 0) + sign * n
        if n:
            out[key] = n
        else:
            del out[key]
    return out


@dataclass
class StoreStatistics:
    """Aggregate statistics over an :class:`~repro.xmldb.store.XMLStore`."""

    term_frequency: Dict[str, int]
    """Total occurrences of each term across the corpus."""

    tag_counts: Dict[str, int]
    """Number of elements per tag."""

    level_counts: Dict[int, int]
    """Elements per tree level (root = 0) — the level histogram the
    plan estimator reads containment selectivity off."""

    n_elements: int
    n_words: int
    max_fanout: int
    avg_fanout: float
    max_depth: int

    @classmethod
    def build(cls, store: "XMLStore") -> "StoreStatistics":
        term_freq: Counter = Counter()
        tag_counts: Counter = Counter()
        level_counts: Counter = Counter()
        for doc in store.documents():
            term_freq.update(doc.word_terms)
            tag_counts.update(doc.tags)
            level_counts.update(doc.levels)
        return cls._with_shape(store, dict(term_freq), dict(tag_counts),
                               dict(level_counts))

    def updated(self, store: "XMLStore", doc: "Document",
                added: bool) -> "StoreStatistics":
        """The catalog of ``store`` just after ``doc`` was added to it
        (or removed from it), from this one: the counts move by the
        document's share and the fan-out and depth are re-read from
        the documents' parent and level columns.  This catalog is left
        as it is, for any reader still holding it."""
        sign = 1 if added else -1
        return self._with_shape(
            store,
            _shifted(self.term_frequency, doc.word_terms, sign),
            _shifted(self.tag_counts, doc.tags, sign),
            _shifted(self.level_counts, doc.levels, sign),
        )

    @classmethod
    def _with_shape(cls, store: "XMLStore", term_freq: Dict[str, int],
                    tag_counts: Dict[str, int],
                    level_counts: Dict[int, int]) -> "StoreStatistics":
        """The catalog holding these counts, with the fan-out and
        depth aggregates read off ``store``'s documents."""
        max_fanout = 0
        total_children = 0
        internal_nodes = 0
        max_depth = 0
        for doc in store.documents():
            fanouts = doc.child_counts()
            internal_nodes += len(fanouts) - fanouts.count(0)
            total_children += sum(fanouts)
            max_fanout = max(max_fanout, max(fanouts, default=0))
            if doc.levels:
                max_depth = max(max_depth, max(doc.levels))
        return cls(
            term_frequency=term_freq,
            tag_counts=tag_counts,
            level_counts=level_counts,
            n_elements=store.n_elements,
            n_words=store.n_words,
            max_fanout=max_fanout,
            avg_fanout=((total_children / internal_nodes)
                        if internal_nodes else 0.0),
            max_depth=max_depth,
        )

    @property
    def avg_depth(self) -> float:
        """Mean element level, from the level histogram."""
        total = sum(self.level_counts.values())
        if not total:
            return 0.0
        weighted = sum(
            level * count for level, count in self.level_counts.items()
        )
        return weighted / total

    def frequency(self, term: str) -> int:
        """Corpus frequency of ``term`` (0 if absent)."""
        return self.term_frequency.get(term, 0)

    def terms_with_frequency(
        self, target: int, tolerance: float = 0.25
    ) -> List[str]:
        """Terms whose corpus frequency is within ``tolerance`` (relative)
        of ``target``, sorted by distance to the target.  Used by benchmark
        workload selection when planted terms are not used."""
        lo = target * (1.0 - tolerance)
        hi = target * (1.0 + tolerance)
        candidates = [
            (abs(freq - target), term)
            for term, freq in self.term_frequency.items()
            if lo <= freq <= hi
        ]
        candidates.sort()
        return [term for _, term in candidates]


class ScoreHistogram:
    """Equi-width histogram over a set of scores.

    This is the Pick auxiliary structure from §5.3: given a qualification
    like "the top 20% of scored nodes are relevant", the histogram converts
    the percentage into an absolute score threshold without a full sort.
    """

    def __init__(self, scores: Sequence[float], n_buckets: int = 32):
        if n_buckets <= 0:
            raise ValueError("n_buckets must be positive")
        self.n_buckets = n_buckets
        self.total = len(scores)
        if self.total == 0:
            self.lo = 0.0
            self.hi = 1.0
            self.counts = [0] * n_buckets
            return
        self.lo = min(scores)
        self.hi = max(scores)
        width = (self.hi - self.lo) or 1.0
        self.counts = [0] * n_buckets
        for s in scores:
            b = int((s - self.lo) / width * n_buckets)
            if b == n_buckets:  # max score lands in the last bucket
                b -= 1
            self.counts[b] += 1

    def bucket_bounds(self, b: int) -> Tuple[float, float]:
        """[lo, hi) score range of bucket ``b``."""
        width = (self.hi - self.lo) / self.n_buckets or 1.0 / self.n_buckets
        return self.lo + b * width, self.lo + (b + 1) * width

    def threshold_for_top_fraction(self, fraction: float) -> float:
        """Smallest score ``t`` such that (approximately) ``fraction`` of
        all scores are ``>= t``.  The answer is conservative: it returns
        the lower bound of the bucket where the cumulative count crosses
        the target, so at least the requested fraction qualifies."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        if self.total == 0:
            return 0.0
        target = fraction * self.total
        cum = 0
        for b in range(self.n_buckets - 1, -1, -1):
            cum += self.counts[b]
            if cum >= target:
                return self.bucket_bounds(b)[0]
        return self.lo

    def count_at_least(self, threshold: float) -> int:
        """Approximate number of scores ``>= threshold`` (bucket
        resolution; exact at bucket boundaries)."""
        if self.total == 0:
            return 0
        n = 0
        for b in range(self.n_buckets):
            blo, bhi = self.bucket_bounds(b)
            if blo >= threshold:
                n += self.counts[b]
            elif bhi > threshold:
                # Partial bucket: assume uniform within the bucket.
                frac = (bhi - threshold) / (bhi - blo)
                n += int(round(self.counts[b] * frac))
        return n
