"""TIX algebra operators (§3.2, §3.3).

All operators consume and produce *collections of scored trees*
(``List[STree]``), giving algebraic closure.  Score generation happens via
pattern matching: embeddings of the scored pattern tree assign scores to
the matched data IR-nodes per the pattern's scoring specification ``S``.

The operators here define the semantics; the access methods
(:mod:`repro.access`) implement the same semantics efficiently and are
tested against these definitions.  The pipelined engine
(:mod:`repro.engine`) runs compiled plans over those access methods and
is tested against the query evaluator.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.matching import Match, find_embeddings
from repro.core.pattern import (
    Combine,
    FromLabel,
    JoinScore,
    NodeScore,
    ScoredPatternTree,
)
from repro.core.pick import PickCriterion, pick_tree
from repro.core.trees import SNode, STree, build_minimal_hierarchy

__all__ = [
    "scored_selection",
    "scored_projection",
    "product",
    "scored_join",
    "threshold",
    "pick",
    "PickCriterion",
    "union_collections",
    "scored_union",
    "scored_value_join",
    "sort_by_score",
    "top_k_trees",
    "group_by_root_score",
    "k_threshold_via_grouping",
    "evaluate_match_scores",
]


# ----------------------------------------------------------------------
# Score evaluation over one embedding
# ----------------------------------------------------------------------

def evaluate_match_scores(
    pattern: ScoredPatternTree, match: Match
) -> Dict[str, float]:
    """Evaluate the scoring specification ``S`` on one embedding,
    in dependency order.  Returns ``{label: score}`` including temporary
    join-score labels."""
    scores: Dict[str, float] = {}
    for label in pattern.scoring_order():
        rule = pattern.scoring[label]
        if isinstance(rule, NodeScore):
            scores[label] = rule.evaluate(match[label])
        elif isinstance(rule, FromLabel):
            scores[label] = scores.get(rule.source_label, 0.0)
        elif isinstance(rule, JoinScore):
            scores[label] = rule.evaluate(
                match[rule.label_a], match[rule.label_b]
            )
        elif isinstance(rule, Combine):
            scores[label] = rule.evaluate(scores)
        else:  # pragma: no cover - future rule types
            raise TypeError(f"unknown scoring rule {type(rule).__name__}")
    return scores


# ----------------------------------------------------------------------
# Witness-tree construction
# ----------------------------------------------------------------------

def _pattern_depths(pattern: ScoredPatternTree) -> Dict[str, int]:
    depths: Dict[str, int] = {}

    def visit(node, d: int) -> None:
        depths[node.label] = d
        for c in node.children:
            visit(c, d + 1)

    visit(pattern.root, 0)
    return depths


def _pattern_ancestors(pattern: ScoredPatternTree) -> Dict[str, Set[str]]:
    """Label → set of its ancestor labels in the pattern tree."""
    ancestors: Dict[str, Set[str]] = {}

    def visit(node, chain: List[str]) -> None:
        ancestors[node.label] = set(chain)
        chain.append(node.label)
        for c in node.children:
            visit(c, chain)
        chain.pop()

    visit(pattern.root, [])
    return ancestors


def _build_witness(
    pattern: ScoredPatternTree,
    match: Match,
    scores: Dict[str, float],
) -> STree:
    """Build the witness tree of one embedding: one node per *binding*
    (label, data node), nested by the data hierarchy.  When two labels
    bind the same data node (an ``ad*`` edge matching the ancestor
    itself — Fig. 5(c)), the pattern hierarchy orders the copies."""
    depths = _pattern_depths(pattern)
    p_ancestors = _pattern_ancestors(pattern)
    entities: List[Tuple[str, SNode]] = [
        (label, match[label]) for label in pattern.labels()
    ]
    entities.sort(
        key=lambda e: (e[1].order_start, -e[1].order_end, depths[e[0]])
    )

    def parent_of(i: int) -> Optional[int]:
        """Index of the entity that should own entity ``i`` in the
        witness tree, or None for the root.

        Data hierarchy governs; when several labels bind the *same* data
        node (an ad* edge matching the ancestor itself, Fig. 5(c)), the
        pattern hierarchy breaks the tie: a copy nests under a same-node
        copy only if that copy's label is its pattern ancestor, and a
        different-node descendant attaches to the same-node copy whose
        label is its pattern ancestor when one exists (otherwise the
        pattern-shallowest copy, leaving the others as leaves).
        """
        label, node = entities[i]
        best: Optional[int] = None

        def better(j: int) -> bool:
            if best is None:
                return True
            blabel, bnode = entities[best]
            jlabel, jnode = entities[j]
            if bnode is not jnode:
                # Deeper data node wins.
                return bnode.is_ancestor_of(jnode)
            # Same data node: prefer a pattern ancestor of ours, deepest.
            j_rel = jlabel in p_ancestors[label]
            b_rel = blabel in p_ancestors[label]
            if j_rel != b_rel:
                return j_rel
            if j_rel:
                return depths[jlabel] > depths[blabel]
            return depths[jlabel] < depths[blabel]

        for j, (jlabel, jnode) in enumerate(entities):
            if j == i:
                continue
            if jnode is node:
                if jlabel in p_ancestors[label] and better(j):
                    best = j
            elif jnode.is_ancestor_of(node) and better(j):
                best = j
        return best

    copies: List[SNode] = []
    for label, node in entities:
        copy = node.shallow_copy()
        copy.children = []
        copy.labels = {label}
        copy.score = scores.get(label)
        copies.append(copy)

    root_copy: Optional[SNode] = None
    children: Dict[int, List[int]] = {}
    for i in range(len(entities)):
        p = parent_of(i)
        if p is None:
            root_copy = copies[i]
        else:
            children.setdefault(p, []).append(i)
    for p, kids in children.items():
        kids.sort(key=lambda i: (entities[i][1].order_start,
                                 depths[entities[i][0]]))
        copies[p].children = [copies[i] for i in kids]
    assert root_copy is not None
    return STree(root_copy)


# ----------------------------------------------------------------------
# Scored Selection (§3.2.1)
# ----------------------------------------------------------------------

def scored_selection(
    collection: Sequence[STree],
    pattern: ScoredPatternTree,
) -> List[STree]:
    """One witness tree per embedding of ``pattern`` into each input tree
    (enumerated by :func:`repro.core.matching.find_embeddings`), with
    scores per the pattern's scoring specification."""
    out: List[STree] = []
    for tree in collection:
        tree.renumber()
        for match in find_embeddings(pattern, tree):
            scores = evaluate_match_scores(pattern, match)
            out.append(_build_witness(pattern, match, scores))
    return out


# ----------------------------------------------------------------------
# Scored Projection (§3.2.2)
# ----------------------------------------------------------------------

def scored_projection(
    collection: Sequence[STree],
    pattern: ScoredPatternTree,
    pl: Sequence[str],
    drop_zero: bool = True,
) -> List[STree]:
    """Per input tree, one output tree retaining exactly the data nodes
    matched (in any embedding) by a label in the projection list ``PL``,
    hierarchy preserved, duplicates merged.

    Scores: nodes matching a *primary* query IR-node are scored with the
    scoring function; nodes matching a *secondary* IR-node get the highest
    score among the retained matches of the rule's source label in their
    subtree (§3.2.2).  With ``drop_zero`` (paper default) retained IR-nodes
    scoring zero are removed.
    """
    pl = list(pl)
    for label in pl:
        pattern.node(label)  # validates
    out: List[STree] = []
    for tree in collection:
        tree.renumber()
        matches = find_embeddings(pattern, tree)
        if not matches:
            continue
        retained: Dict[int, SNode] = {}
        node_labels: Dict[int, Set[str]] = {}
        for match in matches:
            for label in pl:
                node = match[label]
                retained[id(node)] = node
                node_labels.setdefault(id(node), set()).add(label)

        # Primary scores first (any node-scoring rule counts as primary).
        node_scores: Dict[int, Optional[float]] = {}
        for nid, node in retained.items():
            primaries = [
                lbl for lbl in node_labels[nid]
                if isinstance(pattern.scoring.get(lbl), NodeScore)
            ]
            if primaries:
                rule = pattern.scoring[primaries[0]]
                assert isinstance(rule, NodeScore)
                node_scores[nid] = rule.evaluate(node)

        ir_labels = set(pattern.scoring)
        if drop_zero:
            for nid in list(retained):
                if (
                    node_scores.get(nid) == 0.0
                    and node_labels[nid] <= ir_labels
                ):
                    del retained[nid]
                    del node_labels[nid]
                    del node_scores[nid]
        # A zero-scoring node retained only because it also plays a
        # non-IR role (e.g. the $3 sname in the running example) is pure
        # context: it carries no score in the output (Fig. 6 shows sname
        # unscored).
        for nid in retained:
            if (
                node_scores.get(nid) == 0.0
                and not (node_labels[nid] <= ir_labels)
            ):
                node_scores[nid] = None

        # Secondary (FromLabel) scores over the retained set.
        for label in pattern.scoring_order():
            rule = pattern.scoring[label]
            if not isinstance(rule, FromLabel) or label not in pl:
                continue
            src = rule.source_label
            for nid, node in retained.items():
                if label not in node_labels[nid]:
                    continue
                best: Optional[float] = None
                for mid, m in retained.items():
                    if src not in node_labels[mid]:
                        continue
                    s = node_scores.get(mid)
                    if s is None:
                        continue
                    if m is node or node.is_ancestor_of(m):
                        if best is None or s > best:
                            best = s
                if best is not None and (
                    node_scores.get(nid) is None or best > node_scores[nid]
                ):
                    node_scores[nid] = best

        if not retained:
            continue
        roots = build_minimal_hierarchy(list(retained.values()))
        # Transfer scores/labels onto the copies (minimal hierarchy made
        # shallow copies keyed by original node identity order).
        index = {
            (n.order_start, n.order_end): nid for nid, n in retained.items()
        }
        for root in roots:
            for copy in root.preorder():
                nid = index[(copy.order_start, copy.order_end)]
                copy.score = node_scores.get(nid)
                copy.labels = set(node_labels[nid])
            out.append(STree(root))
    return out


# ----------------------------------------------------------------------
# Product and Scored Join (§3.2.3)
# ----------------------------------------------------------------------

PROD_ROOT_TAG = "tix_prod_root"


def product(c1: Sequence[STree], c2: Sequence[STree]) -> List[STree]:
    """Cartesian product: every pair of trees becomes the two children of
    a fresh ``tix_prod_root``."""
    out: List[STree] = []
    for a in c1:
        for b in c2:
            root = SNode(PROD_ROOT_TAG)
            root.add_child(a.root.deep_copy())
            root.add_child(b.root.deep_copy())
            out.append(STree(root))
    return out


def scored_join(
    c1: Sequence[STree],
    c2: Sequence[STree],
    pattern: ScoredPatternTree,
) -> List[STree]:
    """Scored join = scored selection over the product (§3.2.3).  Join
    conditions live in the pattern's formula and/or
    :class:`~repro.core.pattern.JoinScore` rules."""
    return scored_selection(product(c1, c2), pattern)


# ----------------------------------------------------------------------
# Threshold (§3.3.1)
# ----------------------------------------------------------------------

def threshold(
    collection: Sequence[STree],
    label: str,
    min_score: Optional[float] = None,
    top_k: Optional[int] = None,
) -> List[STree]:
    """Keep the trees that satisfy the threshold condition on the data
    IR-nodes matching ``label``:

    - ``min_score`` (the paper's *V*): at least one matching node scores
      strictly above *V*;
    - ``top_k`` (the paper's *K*): at least one matching node ranks in the
      global top-*K* (by score, across all input trees).
    """
    if min_score is None and top_k is None:
        return list(collection)

    def label_nodes(tree: STree) -> List[SNode]:
        return [
            n for n in tree.nodes()
            if label in n.labels and n.score is not None
        ]

    survivors = list(collection)
    if min_score is not None:
        survivors = [
            t for t in survivors
            if any(n.score > min_score for n in label_nodes(t))
        ]
    if top_k is not None:
        all_scores: List[float] = []
        for t in survivors:
            all_scores.extend(
                n.score for n in label_nodes(t))  # type: ignore[misc]
        all_scores.sort(reverse=True)
        if not all_scores:
            return []
        cutoff_rank = min(top_k, len(all_scores))
        cutoff = all_scores[cutoff_rank - 1]
        survivors = [
            t for t in survivors
            if any(n.score >= cutoff for n in label_nodes(t))
        ]
    return survivors


# ----------------------------------------------------------------------
# Pick (§3.3.2)
# ----------------------------------------------------------------------

def pick(
    collection: Sequence[STree],
    label: str,
    criterion: PickCriterion,
    pattern: Optional[ScoredPatternTree] = None,
) -> List[STree]:
    """Apply the Pick operator to each tree.

    Candidates are the data IR-nodes matching ``label`` *exclusively* — a
    node that also plays a non-candidate role (e.g. the projection root
    matching both ``$1`` and ``$4`` in the running example) is kept as
    context even when its candidate entity is dropped, exactly as in the
    paper's walk-through ("the <article> data IR-node — not the root node —
    is dropped").

    When ``pattern`` is supplied, secondary (:class:`FromLabel`) scores are
    recomputed over the surviving candidates, reproducing the dynamic
    score change the paper describes (5.6 → 5.0 for the example article).
    """
    out: List[STree] = []
    for tree in collection:
        tree.renumber()
        candidates = {
            id(n) for n in tree.nodes()
            if label in n.labels and n.labels == {label}
        }
        result = pick_tree(tree, candidates, criterion)
        if result is None:
            continue
        if pattern is not None:
            _refresh_secondary_scores(result, pattern, label)
        out.append(result)
    return out


def _refresh_secondary_scores(
    tree: STree, pattern: ScoredPatternTree, pick_label: str
) -> None:
    """Recompute FromLabel scores whose source is the picked label."""
    tree.renumber()
    for sec_label in pattern.scoring_order():
        rule = pattern.scoring[sec_label]
        if not isinstance(rule, FromLabel) or rule.source_label != pick_label:
            continue
        for node in tree.nodes():
            if sec_label not in node.labels:
                continue
            # The node's own candidate entity (if it had one) was dropped
            # by Pick — mixed-label nodes are never candidates — so the
            # recomputation ranges over strict survivors only ("the
            # <article> data IR-node, not the root node, is dropped").
            best: Optional[float] = None
            for m in node.preorder():
                if m is node:
                    continue
                if pick_label in m.labels and m.score is not None:
                    if best is None or m.score > best:
                        best = m.score
            node.score = best if best is not None else 0.0


# ----------------------------------------------------------------------
# Union, value join, ordering (§5.2 algebra-level counterparts)
# ----------------------------------------------------------------------

def union_collections(*collections: Sequence[STree]) -> List[STree]:
    """Bag union of collections."""
    out: List[STree] = []
    for c in collections:
        out.extend(c)
    return out


def scored_union(
    c1: Sequence[STree],
    c2: Sequence[STree],
    combine: Callable[[float, float], float] = lambda a, b: a + b,
    w1: float = 1.0,
    w2: float = 1.0,
) -> List[STree]:
    """Scored set union (Example 5.2): trees whose roots share the same
    stored source are merged with ``combine(w1·s_A, w2·s_B)``; trees
    present on one side only keep ``combine`` applied with the missing
    score as 0."""
    def key(tree: STree):
        return tree.root.source

    left: Dict[object, Tuple[STree, float]] = {}
    order: List[object] = []
    right: Dict[object, float] = {}
    for tree in c1:
        k = key(tree) or ("left", id(tree))
        left[k] = (tree, tree.score or 0.0)
        order.append(k)
    out_trees: Dict[object, STree] = {}
    for tree in c2:
        k = key(tree) or ("right", id(tree))
        right[k] = tree.score or 0.0
        if k not in left:
            order.append(k)
            out_trees[k] = tree.deep_copy()
    for k, (tree, _) in left.items():
        out_trees[k] = tree.deep_copy()
    result: List[STree] = []
    for k in order:
        clone = out_trees[k]
        s_a = left[k][1] if k in left else 0.0
        s_b = right.get(k, 0.0)
        clone.root.score = combine(w1 * s_a, w2 * s_b)
        result.append(clone)
    return result


def scored_value_join(
    c1: Sequence[STree],
    c2: Sequence[STree],
    condition: Callable[[STree, STree], bool],
    score_fn: Callable[[float, float], float] = lambda a, b: a + b,
    w1: float = 1.0,
    w2: float = 1.0,
) -> List[STree]:
    """Scored value join (Example 5.1): pairs satisfying ``condition`` are
    merged under a ``tix_prod_root`` whose score is
    ``score_fn(w1·s_A, w2·s_B)``."""
    out: List[STree] = []
    for a in c1:
        for b in c2:
            if not condition(a, b):
                continue
            root = SNode(PROD_ROOT_TAG)
            root.add_child(a.root.deep_copy())
            root.add_child(b.root.deep_copy())
            root.score = score_fn(w1 * (a.score or 0.0), w2 * (b.score or 0.0))
            out.append(STree(root))
    return out


def sort_by_score(
    collection: Sequence[STree], descending: bool = True
) -> List[STree]:
    """Order a collection by tree score (None sorts last)."""
    def key(t: STree) -> float:
        return t.score if t.score is not None else float("-inf")

    return sorted(collection, key=key, reverse=descending)


def top_k_trees(collection: Sequence[STree], k: int) -> List[STree]:
    """The K-threshold expansion (§3.3.1): order by score, retain the
    leftmost *K* trees."""
    return sort_by_score(collection)[:k]


def group_by_root_score(
    collection: Sequence[STree],
) -> List[Tuple[float, List[STree]]]:
    """Group trees by identical root score, highest first — the grouping
    (empty basis, score ordering) the paper uses to express K-based
    thresholding with standard operators."""
    groups: Dict[float, List[STree]] = {}
    for t in collection:
        groups.setdefault(t.score or 0.0, []).append(t)
    return sorted(groups.items(), key=lambda kv: -kv[0])


def k_threshold_via_grouping(
    collection: Sequence[STree],
    label: str,
    k: int,
) -> List[STree]:
    """The paper's algebraic *expansion* of K-based thresholding
    (§3.3.1): "a grouping on the data IR-nodes using an empty grouping
    basis with the ordering function based on the score.  A projection
    is then applied to retain the leftmost K subtrees."

    Steps, literally:

    1. group *all* input trees into one group (empty grouping basis),
       with the member order given by the best ``label`` score of each
       tree (the ordering function);
    2. project out the leftmost *K* members.

    Tested equivalent to ``threshold(collection, label, top_k=k)`` up to
    the tie semantics: the dedicated operator keeps every tree tied with
    the k-th score (rank semantics), while the expansion cuts at exactly
    K members — the difference the Threshold operator exists to smooth
    over.
    """
    def best(tree: STree) -> float:
        scores = [
            n.score for n in tree.nodes()
            if label in n.labels and n.score is not None
        ]
        return max(scores) if scores else float("-inf")

    # Step 1: one group, ordered by the ordering function.
    group = sorted(collection, key=best, reverse=True)
    # Step 2: retain the leftmost K subtrees.
    return group[:k]
