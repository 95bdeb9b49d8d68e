"""Plan compiler: lowering the common IR-query shape onto the engine.

The evaluator (:mod:`repro.query.evaluator`) defines the language
semantics; this compiler recognizes the paper's canonical IR-query shape

::

    For $v in document("D")//tag[preds]/descendant-or-self::*
    Score $v using Fn($v, {"t1"}, {"t2", …})
    Return …
    Sortby(score)
    Threshold $v/@score > V stop after K

and lowers it to one pipelined engine plan with no choice points:

    scan → structural filter → rank → materialize

The scan runs :class:`~repro.access.phrasejoin.PhraseJoin` when any
query item has several words and :class:`~repro.access.termjoin.
TermJoin` otherwise, and reads only the postings of the document the
For path names: the stack pass, the score filter and the row wrapping
never see another document's rows (a pass over one document yields
exactly the rows, order and scores the corpus-wide pass yields for it,
because the stack empties at every document change).  The rank is
§5.3's bounded heap (``TopK``) when Sortby and ``stop after`` are both
present, else ``Sort`` and/or ``Limit``.  The structural filter's regions are the For path's prefix
(``//tag[preds]``) resolved at compile time on the stored document's
node columns (tags, child lists, preorder id ranges); no tree of the
volume is built, and only a predicate step calls the evaluator, on each
candidate's own subtree.

Compilation requires the scoring function to have a registered *simple
scorer factory* (term-level scoring the index can drive — see
:meth:`FunctionRegistry.register_score_factory`); queries outside the
shape (joins, Pick clauses, any Threshold other than
``$v/@score > number``) raise :class:`~repro.errors.QueryCompileError`,
and callers fall back to the evaluator.  The compiled plan returns the
ranked scored elements, not the Return-constructor wrapping —
equivalence with the evaluator is on (element, score) sets, which is
what the tests assert.  Every row from the scan to the plan root is a
:class:`~repro.core.trees.StoredTree` reference (document, node,
score); ``Materialize`` marks it as standing for the whole stored
subtree, whose XML is a slice of the document's image, and an
``SNode`` tree is built only for a caller that reads ``root``.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.access.phrasejoin import PhraseJoin
from repro.access.termjoin import TermJoin
from repro.core.trees import STree, snode_from_document
from repro.engine.base import Operator
from repro.engine.operators import (
    Limit,
    Materialize,
    Sort,
    TermJoinScan,
    TopK,
)
from repro.errors import QueryCompileError
from repro.plan.optimizer import PlanChoices
from repro.query.ast import (
    Comparison,
    DocCall,
    FLWOR,
    ForClause,
    PathExpr,
    Query,
    ScoreClause,
    TermSet,
    VarRef,
)
from repro.query.functions import FunctionRegistry, default_registry
from repro.xmldb.store import XMLStore


class StructuralFilter(Operator):
    """Keep scored elements whose stored node lies in one of the allowed
    (doc, start, end) regions — the compiled form of the For-path's
    structural constraint.

    Per document the regions are kept sorted by start position together
    with a running prefix-maximum of their end positions: a candidate
    at ``start`` bisects to the rightmost region starting at or before
    it, then scans left only while the prefix maximum says some region
    can still reach ``start`` — correct for nested and overlapping
    regions, and a single step for the common disjoint case."""

    name = "structural-filter"

    def __init__(self, child: Operator, store: XMLStore,
                 regions: Sequence[Tuple[int, int, int]]):
        super().__init__([child])
        self.store = store
        self.regions = sorted(regions)
        by_doc: Dict[int, Tuple[List[int], List[int], List[int]]] = {}
        for rdoc, rstart, rend in self.regions:
            starts, ends, cover = by_doc.setdefault(rdoc, ([], [], []))
            starts.append(rstart)
            ends.append(rend)
            cover.append(max(rend, cover[-1]) if cover else rend)
        self._by_doc = by_doc

    def describe(self) -> str:
        return f"structural-filter({len(self.regions)} regions)"

    def _next(self) -> Optional[STree]:
        while True:
            item = self.children[0].next()
            if item is None:
                return None
            src = item.source
            if src is not None and self._match(*src):
                return item

    def _match(self, doc_id: int, node_id: int) -> bool:
        table = self._by_doc.get(doc_id)
        if table is None:
            return False
        doc = self.store.document(doc_id)
        start, end = doc.starts[node_id], doc.ends[node_id]
        starts, ends, cover = table
        i = bisect_right(starts, start) - 1
        while i >= 0 and cover[i] >= start:
            if ends[i] >= end:
                return True
            i -= 1
        return False


def compile_query(store: XMLStore, query: Query,
                  registry: Optional[FunctionRegistry] = None) -> Operator:
    """Compile ``query`` to an engine plan (see module docstring).

    The returned plan is estimator-annotated: every operator carries
    ``est_rows``/``est_cost`` from the store's statistics catalog, so
    ``explain()`` shows estimates before execution and
    ``explain(analyze=True)`` shows estimated-vs-actual afterwards."""
    from repro import obs
    from repro.plan.estimate import estimate_plan

    with obs.RECORDER.span("compile"):
        plan = _compile_query(store, query, registry)
        estimate_plan(plan, store)
        return plan


def _compile_query(store: XMLStore, query: Query,
                   registry: Optional[FunctionRegistry]) -> Operator:
    registry = registry or default_registry()
    flwor = query.body
    if not isinstance(flwor, FLWOR):
        raise QueryCompileError("only FLWOR queries are compilable")

    for_clause: Optional[ForClause] = None
    score_clause: Optional[ScoreClause] = None
    for clause in flwor.clauses:
        if isinstance(clause, ForClause):
            if for_clause is not None:
                raise QueryCompileError(
                    "compiled shape supports a single For clause"
                )
            for_clause = clause
        elif isinstance(clause, ScoreClause):
            if score_clause is not None:
                raise QueryCompileError(
                    "compiled shape supports a single Score clause"
                )
            score_clause = clause
        else:
            raise QueryCompileError(
                f"clause {type(clause).__name__} is not compilable; "
                f"use the evaluator"
            )
    if for_clause is None or score_clause is None:
        raise QueryCompileError("compiled shape needs For + Score clauses")
    if score_clause.var != for_clause.var:
        raise QueryCompileError("Score must target the For variable")

    doc_name, prefix_steps = _parse_for_path(for_clause)
    items, scorer, phrase_mode = _build_scorer(score_clause, registry)

    min_score, stop_after = _threshold_params(flwor, for_clause.var)
    regions = _prefix_regions(store, doc_name, prefix_steps, registry)

    method = (PhraseJoin.from_scorer(store, scorer) if phrase_mode
              else TermJoin(store, scorer))
    scan = TermJoinScan(store, items, method, min_score=min_score,
                        doc_id=store.document(doc_name).doc_id)
    plan: Operator = StructuralFilter(scan, store, regions)
    if flwor.sortby is not None and stop_after is not None:
        plan = TopK(plan, stop_after)  # ranked + cut: §5.3's bounded heap
    else:
        if flwor.sortby is not None:
            plan = Sort(plan)
        if stop_after is not None:
            plan = Limit(plan, stop_after)
    root: Any = Materialize(plan)
    root.planner_choices = PlanChoices()  # the frozen harness reads it
    return root


def _parse_for_path(for_clause: ForClause) -> Tuple[str, tuple]:
    source = for_clause.source
    if (not isinstance(source, PathExpr)
            or not isinstance(source.root, DocCall)):
        raise QueryCompileError(
            "compiled For source must be a document(...) path"
        )
    steps = source.steps
    if not steps or steps[-1].axis != "descendant-or-self":
        raise QueryCompileError(
            "compiled For path must end in descendant-or-self::*"
        )
    return source.root.name, tuple(steps[:-1])


def _build_scorer(score_clause: ScoreClause,
                  registry: FunctionRegistry):
    """Resolve the Score clause to ``(query items, scorer, phrase_mode)``:
    single-term sets lower onto TermJoin, any multi-word phrase switches
    the plan to PhraseJoin."""
    call = score_clause.function
    factory = registry.score_factory(call.name)
    primary: List[str] = []
    secondary: List[str] = []
    sets = [a for a in call.args if isinstance(a, TermSet)]
    if not sets:
        raise QueryCompileError(
            "compiled Score needs literal term sets"
        )
    primary = list(sets[0].phrases)
    if len(sets) > 1:
        secondary = list(sets[1].phrases)
    scorer = factory(primary, secondary)
    phrase_mode = any(
        len(p.split()) != 1 for p in primary + secondary
    )
    return primary + secondary, scorer, phrase_mode


def _threshold_params(flwor: FLWOR, var: str):
    """``(min_score, stop_after)`` of the Threshold clause.  Only a
    strict ``>`` compiles: the scan keeps ``score > min_score``, so any
    other comparison (``>=`` included) falls back to the evaluator."""
    min_score: Optional[float] = None
    stop_after: Optional[int] = None
    if flwor.threshold is not None:
        cond = flwor.threshold.condition
        if isinstance(cond, Comparison) and cond.op == ">":
            left, right = cond.left, cond.right
            if (
                isinstance(left, PathExpr)
                and isinstance(left.root, VarRef)
                and left.root.name == var
                and left.steps
                and left.steps[-1].axis == "attribute"
                and left.steps[-1].test == "score"
            ):
                from repro.query.ast import Literal

                if isinstance(right, Literal):
                    min_score = float(right.value)  # type: ignore[arg-type]
        if min_score is None:
            raise QueryCompileError(
                "compiled Threshold must be '$v/@score > number'"
            )
        stop_after = flwor.threshold.stop_after
    return min_score, stop_after


def _prefix_regions(store: XMLStore, doc_name: str, prefix_steps: tuple,
                    registry: FunctionRegistry):
    """Resolve the For path's prefix (everything before the ad* tail) on
    the stored document's node columns and return the allowed
    (doc, start, end) regions.

    Each step has the evaluator's semantics (``_apply_step``): from the
    document node, ``child`` reaches the root element and ``descendant``
    every element, root included; from an element, the candidates are
    its child, descendant or subtree ids; ``attribute``/``text`` steps
    reach no element.  Results extend per input node in input order
    without deduplication, so nested matches repeat exactly as they do
    in the evaluator.  Only a predicate step uses the evaluator, on each
    candidate's own materialised subtree — never on the whole volume."""
    doc = store.document(doc_name)
    tags = doc.tags
    evaluator = None
    items: List[int] = [doc.root]  # stands for the document node
    at_document_node = True
    for step in prefix_steps:
        axis, test = step.axis, step.test
        nxt: List[int] = []
        if axis not in ("attribute", "text"):
            for n in items:
                if at_document_node:
                    cands: Sequence[int] = (
                        [n] if axis == "child" else range(len(doc)))
                elif axis == "child":
                    cands = doc.children(n)
                elif axis == "descendant":
                    cands = doc.descendants(n)
                else:  # descendant-or-self
                    cands = doc.subtree(n)
                nxt.extend(c for c in cands if test == "*" or tags[c] == test)
        if step.predicates and nxt:
            from repro.query.evaluator import QueryEvaluator, is_truthy

            if evaluator is None:
                evaluator = QueryEvaluator(store, registry)
            kept: List[int] = []
            for c in nxt:
                node = snode_from_document(doc, c)
                if all(is_truthy(evaluator.eval_expr(p, {}, node))
                       for p in step.predicates):
                    kept.append(c)
            nxt = kept
        items = nxt
        at_document_node = False
    return [(doc.doc_id, doc.starts[n], doc.ends[n]) for n in items]

