"""Composite-of-standard-operators baselines (§6.1, §6.2).

The paper expresses TermJoin as a composition of standard operators
(§5.1.1):

    op(C) = ⋃_i γ_i(σ_{P_i}(C))

i.e. per term: an index-driven selection producing one witness tree per
(occurrence, ancestor) pair, a grouping on node id to accumulate counts,
then a scored set union across terms.  Evaluating this expression directly
on the tree algebra is the **Comp1** baseline: it materializes witness
records for every ancestor of every occurrence, groups them by sorting,
and unions the per-term results — paying allocation and sort cost on a
volume of ``occurrences × depth`` records that grows with term frequency.

**Comp2** is the variant "as advised by recent studies" with the
structural joins pushed down: each term's posting list is structurally
joined against the *entire element table* (the generic
ancestor-candidates input a real plan uses before any term knowledge can
narrow it), making its cost dominated by the full element scan — large
but nearly independent of term frequency, exactly the flat-and-huge
profile of Tables 1-4.

**Comp3** (§6.2) is the phrase baseline: per-term index accesses, an
intersection of element ids, then a *filter* step that fetches each
candidate element's text from the database and re-scans it for the phrase
— the work PhraseFinder avoids by checking offsets during the
intersection itself.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.access.results import PhraseMatch, ScoredElement
from repro.core.scoring import count_phrase
from repro.joins.structural import stack_tree_join
from repro.resilience import guard as _resguard
from repro.xmldb.store import XMLStore


class Comp1:
    """Direct evaluation of ⋃ γ(σ_P_i(C)) — ancestor-walk selections,
    sort-based grouping, sort-merge scored union."""

    name = "Comp1"

    def __init__(self, store: XMLStore, scorer,
                 complex_scoring: bool = False):
        self.store = store
        self.scorer = scorer
        self.complex_scoring = complex_scoring

    def run(self, terms: Sequence[str]) -> List[ScoredElement]:
        from repro.core.trees import SNode

        index = self.store.index
        counters = self.store.counters
        per_term_groups: List[List[Tuple[Tuple[int, int], list]]] = []
        guard = _resguard.GUARD
        guard_active = guard.active
        gi = 0
        for term in terms:
            if guard_active:
                guard.tick()
            fetched = index.postings(term)
            cols = fetched.postings
            counters.index_lookups += 1
            counters.postings_read += len(cols)
            # Selection: the direct implementation materializes one
            # witness tree per (occurrence, ancestor) embedding, exactly
            # as the algebra-level scored selection does — the record
            # carries actual tree nodes, not just ids.  This allocation
            # volume (occurrences × depth) is what the paper's Comp1
            # pays and TermJoin avoids.
            witnesses: List[
                Tuple[int, int, Tuple[str, int, int], SNode]
            ] = []
            for doc_id, node, offset in zip(cols.doc, cols.node,
                                            cols.offset):
                if guard_active:
                    gi += 1
                    if not (gi & 255):
                        guard.tick(256)
                doc = self.store.document(doc_id)
                occ = (fetched.term, node, offset)
                leaf = SNode(doc.tags[node], source=(doc_id, node))
                cur = node
                while cur != -1:
                    counters.navigations += 1
                    witness_root = SNode(
                        doc.tags[cur], source=(doc_id, cur)
                    )
                    if cur != node:
                        witness_root.add_child(leaf.shallow_copy())
                    witnesses.append((doc_id, cur, occ, witness_root))
                    cur = doc.parents[cur]
            # Grouping on node id: sort then linear group.
            witnesses.sort(key=lambda w: (w[0], w[1]))
            groups: List[Tuple[Tuple[int, int], list]] = []
            for doc_id, node_id, occ, _witness in witnesses:
                key = (doc_id, node_id)
                if groups and groups[-1][0] == key:
                    groups[-1][1].append(occ)
                else:
                    groups.append((key, [occ]))
            per_term_groups.append(groups)

        # Scored set union across terms: sort-merge on the group key,
        # concatenating occurrence lists.
        merged: Dict[Tuple[int, int], list] = {}
        order: List[Tuple[int, int]] = []
        for groups in per_term_groups:
            for key, occs in groups:
                if key in merged:
                    merged[key].extend(occs)
                else:
                    merged[key] = list(occs)
                    order.append(key)
        order.sort()

        out: List[ScoredElement] = []
        for key in order:
            occs = merged[key]
            out.append(self._score(key, occs))
        return out

    def _score(self, key: Tuple[int, int], occs: list) -> ScoredElement:
        doc_id, node_id = key
        counters = self.store.counters
        if self.complex_scoring:
            occs.sort(key=lambda o: (o[1], o[2]))
            doc = self.store.document(doc_id)
            children = doc.children(node_id)
            counters.nodes_fetched += 1
            # Child relevance requires probing each child's region for
            # occurrences — done here against the occurrence list.
            relevant = 0
            for c in children:
                counters.navigations += 1
                lo, hi = doc.starts[c], doc.ends[c]
                if any(
                    lo < doc.starts[o[1]] and doc.ends[o[1]] <= hi
                    or o[1] == c
                    for o in occs
                ):
                    relevant += 1
            score = self.scorer.score_from_occurrences(
                occs, len(children), relevant
            )
        else:
            counts: Dict[str, int] = {}
            for t, _n, _o in occs:
                counts[t] = counts.get(t, 0) + 1
            score = self.scorer.score_from_counts(counts)
        return ScoredElement(doc_id, node_id, score)


class Comp2(Comp1):
    """Comp1 with the structural joins pushed down: each term's postings
    are joined against the full element table with the stack-based
    structural join, so the per-term cost is a full element scan plus the
    containment output — flat in term frequency, huge in the constant."""

    name = "Comp2"

    def run(self, terms: Sequence[str]) -> List[ScoredElement]:
        index = self.store.index
        structure = self.store.structure
        counters = self.store.counters
        all_elements = structure.all_elements()

        merged: Dict[Tuple[int, int], list] = {}
        order: List[Tuple[int, int]] = []
        guard = _resguard.GUARD
        guard_active = guard.active
        gi = 0
        for term in terms:
            if guard_active:
                guard.tick()
            fetched = index.postings(term)
            counters.index_lookups += 1
            counters.postings_read += len(fetched)
            counters.nodes_fetched += len(all_elements)  # full scan
            # stack_tree_join ticks internally; the containment output
            # it returns can still dwarf its inputs, so the pair loop
            # checks on its own stride too.  The join is the generic
            # record-at-a-time operator, so it is fed posting rows.
            pairs = stack_tree_join(all_elements, fetched.postings)
            for anc, (_doc, _pos, node, offset) in pairs:
                if guard_active:
                    gi += 1
                    if not (gi & 255):
                        guard.tick(256)
                key = (anc[0], anc[4])
                occ = (fetched.term, node, offset)
                if key in merged:
                    merged[key].append(occ)
                else:
                    merged[key] = [occ]
                    order.append(key)
        order.sort()
        return [self._score(key, merged[key]) for key in order]


class Comp3:
    """The phrase baseline (§6.2): index access per term, element-id
    intersection, then a text-refetch filter verifying that offsets are
    exactly 1 apart and in phrase order."""

    name = "Comp3"

    def __init__(self, store: XMLStore, phrase_weight: float = 1.0):
        self.store = store
        self.phrase_weight = phrase_weight

    def run(self, phrase_terms: Sequence[str]) -> List[PhraseMatch]:
        index = self.store.index
        counters = self.store.counters
        # Index access per term: the basic lookup returns element ids
        # only (§5.1) — offsets are not used until the filter.
        candidate_sets: List[set] = []
        guard = _resguard.GUARD
        guard_active = guard.active
        terms: List[str] = []
        for term in phrase_terms:
            if guard_active:
                guard.tick()
            fetched = index.postings(term)
            cols = fetched.postings
            counters.index_lookups += 1
            counters.postings_read += len(cols)
            candidate_sets.append(set(zip(cols.doc, cols.node)))
            terms.append(fetched.term)
        if not candidate_sets:
            return []
        candidates = set.intersection(*candidate_sets)

        # Filter: fetch each candidate's text from the database and scan
        # it for the exact phrase.
        out: List[PhraseMatch] = []
        for doc_id, node_id in sorted(candidates):
            # One check per candidate: each iteration refetches and
            # rescans an element's full text, heavy enough that strides
            # would only delay the deadline.
            if guard_active:
                guard.tick()
            doc = self.store.document(doc_id)
            counters.nodes_fetched += 1
            words = doc.direct_words(node_id)
            count = count_phrase(words, terms)
            if count:
                out.append(
                    PhraseMatch(
                        doc_id, node_id, count, count * self.phrase_weight
                    )
                )
        return out
