"""Physical operators for the pipelined engine.

Sources produce scored trees from the store; tree operators apply the TIX
algebra per input; the score-utilizing operators implement Threshold
(streaming for a V-condition, blocking for a K-condition, per §5.3) and
Pick (via the stack-based access method).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro import obs as _obs
from repro.resilience import guard as _resguard
from repro.access.phrasefinder import PhraseFinder
from repro.access.termjoin import TermJoin
from repro.core.operators import (
    PickCriterion,
    product as algebra_product,
    scored_projection,
    scored_selection,
)
from repro.core.pattern import ScoredPatternTree
from repro.core.trees import SNode, STree, StoredTree, tree_from_document
from repro.engine.base import Operator
from repro.xmldb.store import XMLStore


class DocumentSource(Operator):
    """Stream one tree per named document (all documents if unnamed)."""

    name = "doc-source"

    def __init__(self, store: XMLStore, doc_name: Optional[str] = None):
        super().__init__()
        self.store = store
        self.doc_name = doc_name
        self._queue: List[STree] = []

    def describe(self) -> str:
        return f"doc-source({self.doc_name or '*'})"

    def _open(self) -> None:
        if self.doc_name is not None:
            docs = [self.store.document(self.doc_name)]
        else:
            docs = list(self.store.documents())
        self._queue = [tree_from_document(d) for d in docs]

    def _next(self) -> Optional[STree]:
        return self._queue.pop(0) if self._queue else None


class TagScan(Operator):
    """Stream the subtree of every element with a given tag (optionally
    within one document) — the per-tag element list is read from the
    structure index."""

    name = "tag-scan"

    def __init__(self, store: XMLStore, tag: str,
                 doc_name: Optional[str] = None):
        super().__init__()
        self.store = store
        self.tag = tag
        self.doc_name = doc_name
        self._refs: List = []
        self._i = 0

    def describe(self) -> str:
        where = f" in {self.doc_name}" if self.doc_name else ""
        return f"tag-scan(<{self.tag}>{where})"

    def _open(self) -> None:
        refs = self.store.structure.elements_with_tag(self.tag)
        if self.doc_name is not None:
            doc_id = self.store.document(self.doc_name).doc_id
            refs = [r for r in refs if r[0] == doc_id]
        self._refs = refs
        self._i = 0

    def _next(self) -> Optional[STree]:
        if self._i >= len(self._refs):
            return None
        ref = self._refs[self._i]
        self._i += 1
        doc = self.store.document(ref[0])
        self.store.counters.nodes_fetched += 1
        g = _resguard.GUARD
        if g.active:
            g.count_materialized()
        return tree_from_document(doc, ref[4])


class TermJoinScan(Operator):
    """Source wrapping a score-generating access method (TermJoin or a
    baseline with the same ``run(terms)`` interface): one
    :class:`StoredTree` row per scored element, a reference to the
    stored node that builds no tree unless a downstream operator reads
    its ``root``."""

    name = "termjoin-scan"

    def __init__(self, store: XMLStore, terms: Sequence[str],
                 method, min_score: Optional[float] = None):
        super().__init__()
        self.store = store
        self.terms = list(terms)
        self.method = method
        self.min_score = min_score
        self._results: List = []
        self._i = 0

    def describe(self) -> str:
        return (
            f"termjoin-scan({getattr(self.method, 'name', 'method')}, "
            f"terms={self.terms})"
        )

    def _open(self) -> None:
        self._results = self.method.run(self.terms)
        self.stats.counters.update(getattr(self.method, "last_stats", {}))
        if self.min_score is not None:
            self._results = [
                r for r in self._results if r.score > self.min_score
            ]
        self._i = 0

    def _next(self) -> Optional[STree]:
        if self._i >= len(self._results):
            return None
        r = self._results[self._i]
        self._i += 1
        return StoredTree(self.store.document(r.doc_id), r.node_id, r.score)


class PhraseFinderScan(Operator):
    """Source wrapping PhraseFinder (or Comp3): one single-node tree per
    phrase-containing element, score = phrase count × weight."""

    name = "phrasefinder-scan"

    def __init__(self, store: XMLStore, phrase_terms: Sequence[str],
                 method: Optional[PhraseFinder] = None):
        super().__init__()
        self.store = store
        self.phrase_terms = list(phrase_terms)
        self.method = method or PhraseFinder(store)
        self._results: List = []
        self._i = 0

    def describe(self) -> str:
        return f"phrasefinder-scan({' '.join(self.phrase_terms)!r})"

    def _open(self) -> None:
        self._results = self.method.run(self.phrase_terms)
        self.stats.counters.update(getattr(self.method, "last_stats", {}))
        self._i = 0

    def _next(self) -> Optional[STree]:
        if self._i >= len(self._results):
            return None
        m = self._results[self._i]
        self._i += 1
        doc = self.store.document(m.doc_id)
        node = SNode(
            tag=doc.tags[m.node_id],
            score=m.score,
            source=(m.doc_id, m.node_id),
        )
        node.attrs["phrase-count"] = str(m.count)
        return STree(node)


class Select(Operator):
    """Scored selection: emits one witness tree per embedding per input."""

    name = "select"

    def __init__(self, child: Operator, pattern: ScoredPatternTree):
        super().__init__([child])
        self.pattern = pattern
        self._buffer: List[STree] = []

    def _next(self) -> Optional[STree]:
        while not self._buffer:
            item = self.children[0].next()
            if item is None:
                return None
            self._buffer = scored_selection([item], self.pattern)
        return self._buffer.pop(0)


class Project(Operator):
    """Scored projection with a projection list."""

    name = "project"

    def __init__(self, child: Operator, pattern: ScoredPatternTree,
                 pl: Sequence[str], drop_zero: bool = True):
        super().__init__([child])
        self.pattern = pattern
        self.pl = list(pl)
        self.drop_zero = drop_zero
        self._buffer: List[STree] = []

    def describe(self) -> str:
        return f"project(PL={self.pl})"

    def _next(self) -> Optional[STree]:
        while not self._buffer:
            item = self.children[0].next()
            if item is None:
                return None
            self._buffer = scored_projection(
                [item], self.pattern, self.pl, self.drop_zero
            )
        return self._buffer.pop(0)


class Product(Operator):
    """Cartesian product under ``tix_prod_root`` roots.  The right input
    is materialized once (block-nested-loops)."""

    name = "product"

    def __init__(self, left: Operator, right: Operator):
        super().__init__([left, right])
        self._right: List[STree] = []
        self._cur_left: Optional[STree] = None
        self._ri = 0

    def _open(self) -> None:
        right_op = self.children[1]
        self._right = list(right_op)
        self._cur_left = None
        self._ri = 0

    def _next(self) -> Optional[STree]:
        if not self._right:
            return None
        while True:
            if self._cur_left is None or self._ri >= len(self._right):
                self._cur_left = self.children[0].next()
                self._ri = 0
                if self._cur_left is None:
                    return None
            pair = algebra_product([self._cur_left],
                                   [self._right[self._ri]])
            self._ri += 1
            return pair[0]


class Join(Operator):
    """Scored join: selection with a join pattern over the product."""

    name = "join"

    def __init__(self, left: Operator, right: Operator,
                 pattern: ScoredPatternTree):
        super().__init__([Select(Product(left, right), pattern)])

    def _next(self) -> Optional[STree]:
        return self.children[0].next()


class ThresholdOp(Operator):
    """Threshold on the trees' data IR-nodes matching ``label``.

    A V-condition streams (each tree judged on its own); a K-condition is
    blocking (global ranking requires seeing every score first, as §5.3
    notes, unless upstream bounds are available)."""

    name = "threshold"

    def __init__(self, child: Operator, label: str,
                 min_score: Optional[float] = None,
                 top_k: Optional[int] = None):
        super().__init__([child])
        self.label = label
        self.min_score = min_score
        self.top_k = top_k
        self._buffer: Optional[List[STree]] = None

    def describe(self) -> str:
        return (
            f"threshold({self.label}, V={self.min_score}, K={self.top_k})"
        )

    def _label_scores(self, tree: STree) -> List[float]:
        return [
            n.score for n in tree.nodes()
            if self.label in n.labels and n.score is not None
        ]

    def _passes_v(self, tree: STree) -> bool:
        if self.min_score is None:
            return True
        return any(s > self.min_score for s in self._label_scores(tree))

    def _open(self) -> None:
        self._buffer = None
        if self.top_k is not None:
            # Blocking: materialize, rank globally, filter.
            from repro.core.operators import threshold as algebra_threshold

            items = [t for t in self.children[0] if self._passes_v(t)]
            self._buffer = algebra_threshold(
                items, self.label, top_k=self.top_k
            )

    def _next(self) -> Optional[STree]:
        if self._buffer is not None:
            return self._buffer.pop(0) if self._buffer else None
        while True:
            item = self.children[0].next()
            if item is None:
                return None
            if self._passes_v(item):
                return item


class PickOp(Operator):
    """Pick via the stack-based access method, per input tree."""

    name = "pick"

    def __init__(self, child: Operator, label: str,
                 criterion: PickCriterion,
                 pattern: Optional[ScoredPatternTree] = None):
        super().__init__([child])
        self.label = label
        self.criterion = criterion
        self.pattern = pattern

    def describe(self) -> str:
        return f"pick({self.label})"

    def _next(self) -> Optional[STree]:
        from repro.core.operators import pick as algebra_pick

        counters = self.stats.counters
        while True:
            item = self.children[0].next()
            if item is None:
                return None
            # Node-level elimination accounting walks the tree, so it is
            # taken only while a collector is installed.
            profiling = _obs.RECORDER.enabled
            if profiling:
                n_before = sum(1 for _ in item.nodes())
            result = algebra_pick(
                [item], self.label, self.criterion, self.pattern
            )
            if result:
                if profiling:
                    n_after = sum(1 for _ in result[0].nodes())
                    counters["nodes_eliminated"] = (
                        counters.get("nodes_eliminated", 0)
                        + max(0, n_before - n_after)
                    )
                return result[0]
            counters["trees_eliminated"] = \
                counters.get("trees_eliminated", 0) + 1
            if profiling:
                counters["nodes_eliminated"] = \
                    counters.get("nodes_eliminated", 0) + n_before


class Sort(Operator):
    """Blocking sort by tree score (descending by default) or a custom
    key."""

    name = "sort"

    def __init__(self, child: Operator,
                 key: Optional[Callable[[STree], float]] = None,
                 descending: bool = True):
        super().__init__([child])
        self.key = key or (
            lambda t: t.score if t.score is not None else float("-inf")
        )
        self.descending = descending
        self._buffer: List[STree] = []

    def _open(self) -> None:
        self._buffer = sorted(
            self.children[0], key=self.key, reverse=self.descending
        )

    def _next(self) -> Optional[STree]:
        return self._buffer.pop(0) if self._buffer else None


class Limit(Operator):
    """'stop after k' — emit at most k trees."""

    name = "limit"

    def __init__(self, child: Operator, k: int):
        super().__init__([child])
        self.k = k
        self._emitted = 0

    def describe(self) -> str:
        return f"limit({self.k})"

    def _open(self) -> None:
        self._emitted = 0

    def _next(self) -> Optional[STree]:
        if self._emitted >= self.k:
            return None
        item = self.children[0].next()
        if item is not None:
            self._emitted += 1
        return item


class ValueJoin(Operator):
    """The scored value join access method (Example 5.1): pairs of
    left/right trees satisfying the join condition are merged under a
    ``tix_prod_root`` whose score is ``f(w1·s_A, w2·s_B)``.  The right
    input is materialized once (block nested loops); an IR-style
    condition is typically a similarity predicate."""

    name = "value-join"

    def __init__(self, left: Operator, right: Operator,
                 condition, score_fn=None,
                 w1: float = 1.0, w2: float = 1.0):
        super().__init__([left, right])
        self.condition = condition
        self.score_fn = score_fn or (lambda a, b: a + b)
        self.w1 = w1
        self.w2 = w2
        self._right: List[STree] = []
        self._cur_left: Optional[STree] = None
        self._ri = 0

    def _open(self) -> None:
        self._right = list(self.children[1])
        self._cur_left = None
        self._ri = 0

    def _next(self) -> Optional[STree]:
        while True:
            if self._cur_left is None or self._ri >= len(self._right):
                self._cur_left = self.children[0].next()
                self._ri = 0
                if self._cur_left is None:
                    return None
            while self._ri < len(self._right):
                right = self._right[self._ri]
                self._ri += 1
                left = self._cur_left
                if not self.condition(left, right):
                    continue
                root = SNode("tix_prod_root")
                root.add_child(left.root.deep_copy())
                root.add_child(right.root.deep_copy())
                root.score = self.score_fn(
                    self.w1 * (left.score or 0.0),
                    self.w2 * (right.score or 0.0),
                )
                return STree(root)


class ScoredUnion(Operator):
    """The scored set union access method (Example 5.2): trees whose
    roots share a stored source are merged with
    ``f(w1·s_A, w2·s_B)``; one-sided trees get the missing score as 0.
    Blocking (both inputs must be seen to find the overlaps)."""

    name = "scored-union"

    def __init__(self, left: Operator, right: Operator,
                 combine=None, w1: float = 1.0, w2: float = 1.0):
        super().__init__([left, right])
        self.combine = combine or (lambda a, b: a + b)
        self.w1 = w1
        self.w2 = w2
        self._buffer: List[STree] = []

    def _open(self) -> None:
        from repro.core.operators import scored_union

        self._buffer = scored_union(
            list(self.children[0]), list(self.children[1]),
            combine=self.combine, w1=self.w1, w2=self.w2,
        )

    def _next(self) -> Optional[STree]:
        return self._buffer.pop(0) if self._buffer else None


class TopK(Operator):
    """Exact top-k by tree score with a bounded heap — the streaming
    replacement for Sort+Limit when only *k* ranked results are needed
    (§5.3's efficient K-Threshold evaluation).  Memory is O(k), not
    O(input); ties keep the earlier input."""

    name = "top-k"

    def __init__(self, child: Operator, k: int):
        super().__init__([child])
        if k <= 0:
            raise ValueError("k must be positive")
        self.k = k
        self._buffer: List[STree] = []

    def describe(self) -> str:
        return f"top-k({self.k})"

    def _open(self) -> None:
        import heapq

        heap: List[tuple] = []  # (score, -arrival, tree) min-heap
        arrival = 0
        for tree in self.children[0]:
            score = tree.score if tree.score is not None else float("-inf")
            arrival += 1
            entry = (score, -arrival, tree)
            if len(heap) < self.k:
                heapq.heappush(heap, entry)
            elif entry[:2] > heap[0][:2]:
                heapq.heapreplace(heap, entry)
        self._buffer = [
            t for _s, _a, t in sorted(heap, key=lambda e: (-e[0], -e[1]))
        ]

    def _next(self) -> Optional[STree]:
        return self._buffer.pop(0) if self._buffer else None


class Union(Operator):
    """Bag union: drain children in order."""

    name = "union"

    def __init__(self, children: Sequence[Operator]):
        super().__init__(children)
        self._ci = 0

    def _open(self) -> None:
        self._ci = 0

    def _next(self) -> Optional[STree]:
        while self._ci < len(self.children):
            item = self.children[self._ci].next()
            if item is not None:
                return item
            self._ci += 1
        return None


class Materialize(Operator):
    """Replace single-node source-referencing trees with their full
    stored subtrees (keeping the root score) — the final 'retrieve from
    the database and return to the user' step of Example 3.1.  A scan's
    :class:`StoredTree` row is only marked ``full``: its subtree is
    written from the document columns when the answer is serialised."""

    name = "materialize"

    def __init__(self, child: Operator, store: XMLStore):
        super().__init__([child])
        self.store = store

    def _next(self) -> Optional[STree]:
        item = self.children[0].next()
        if item is None:
            return None
        if isinstance(item, StoredTree) and not item.full:
            g = _resguard.GUARD
            if g.active:
                g.count_materialized()
            return StoredTree(item.doc, item.node_id, item.score, full=True)
        src = item.root.source
        if src is None or item.root.children:
            return item
        doc = self.store.document(src[0])
        g = _resguard.GUARD
        if g.active:
            g.count_materialized()
        tree = tree_from_document(doc, src[1])
        tree.root.score = item.root.score
        tree.root.labels = set(item.root.labels)
        return tree
