"""Stack-based structural (containment) joins.

``stack_tree_join`` is the Stack-Tree algorithm specialized to the
ancestor/descendant join the composite baselines need: given a list of
candidate ancestor elements and a list of descendant items (element refs
or term postings), both sorted by ``(doc, start)``, produce every
(ancestor, descendant) pair in one merge pass with a stack of nested
ancestors.

Inputs are flat records, any iterable of them:

- ancestors: ``ElementRef = (doc, start, end, level, node)``;
- descendants: either element refs or posting rows
  ``(doc, pos, node, offset)`` (what iterating a
  :class:`~repro.index.inverted.PostingColumns` yields) — for a
  posting, containment means
  ``a.start < pos <= a.end`` (word positions are drawn from the same
  counter as element keys, so the strict/inclusive mix is exact).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.index.structure import ElementRef
from repro.resilience import guard as _resguard

#: Output pair: (ancestor element ref, descendant item).
JoinPair = Tuple[ElementRef, tuple]


def _desc_key(item: tuple) -> Tuple[int, int]:
    """(doc, start-or-pos) of a descendant item.  Element refs and
    postings both keep doc at index 0 and the position at index 1."""
    return item[0], item[1]


def _desc_end(item: tuple) -> int:
    """End key of a descendant item (== pos for postings, whose 'region'
    is the single word position)."""
    if len(item) == 5:  # ElementRef
        return item[2]
    return item[1]       # posting: zero-width region at pos


def stack_tree_join(
    ancestors: Sequence[ElementRef],
    descendants: Sequence[tuple],
) -> List[JoinPair]:
    """All (ancestor, descendant) containment pairs, via one merge pass.

    Both inputs must be sorted by ``(doc, start)``.  Output is ordered by
    descendant, with that descendant's ancestors innermost-last (stack
    order bottom-up is outermost-first).

    This is output-sensitive: O(|A| + |D| + |output|).
    """
    out: List[JoinPair] = []
    stack: List[ElementRef] = []
    ai = 0
    n_anc = len(ancestors)

    def ended_before(top: ElementRef, doc: int, pos: int) -> bool:
        """Does the stacked ancestor end before position (doc, pos)?"""
        return top[0] < doc or (top[0] == doc and top[2] < pos)

    # Guard hook: hoisted boolean per descendant when inactive, a
    # deadline/cancellation check every 256 descendants when active.
    guard = _resguard.GUARD
    guard_active = guard.active
    gi = 0

    for d in descendants:
        if guard_active:
            gi += 1
            if not (gi & 255):
                guard.tick(256)
        d_doc, d_pos = _desc_key(d)
        # Push every ancestor that starts before this descendant,
        # popping finished ones as we go (nested regions make the stack
        # discipline exact).
        while ai < n_anc:
            a = ancestors[ai]
            if a[0] < d_doc or (a[0] == d_doc and a[1] < d_pos):
                while stack and ended_before(stack[-1], a[0], a[1]):
                    stack.pop()
                stack.append(a)
                ai += 1
            else:
                break
        while stack and ended_before(stack[-1], d_doc, d_pos):
            stack.pop()
        for a in stack:
            out.append((a, d))
    return out


def naive_structural_join(
    ancestors: Sequence[ElementRef],
    descendants: Sequence[tuple],
) -> List[JoinPair]:
    """Quadratic oracle: every containment pair by brute force.  Output
    order matches :func:`stack_tree_join` (descendant-major, outermost
    ancestor first)."""
    out: List[JoinPair] = []
    guard = _resguard.GUARD
    guard_active = guard.active
    for d in descendants:
        # Each iteration scans the whole ancestor table, so one check
        # per descendant keeps the guard granularity comparable to the
        # strided checks of the merge join.
        if guard_active:
            guard.tick()
        d_doc, d_pos = _desc_key(d)
        d_end = _desc_end(d)
        matches = [
            a for a in ancestors
            if a[0] == d_doc and a[1] < d_pos and d_end <= a[2]
        ]
        matches.sort(key=lambda a: a[1])
        out.extend((a, d) for a in matches)
    return out


def ancestors_of_postings(
    ancestors: Sequence[ElementRef],
    postings: Sequence[tuple],
) -> List[JoinPair]:
    """Alias of :func:`stack_tree_join` specialized in name for the
    element×posting case (readability at call sites)."""
    return stack_tree_join(ancestors, postings)
