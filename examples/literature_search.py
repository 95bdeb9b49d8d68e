"""Literature search over a synthetic article collection.

The scenario the paper's introduction motivates: a digital library of
technical articles, a fuzzy topic query ("distributed consensus",
ideally also about "failure" and "recovery"), and answers at the right
granularity — whole chapters when a chapter is relevant throughout,
single paragraphs when the hit is local.

Shows: the workload generator, the pipelined engine with TermJoin, plan
explain output, Pick for granularity control, and the logical-I/O
counters.

Run:  python examples/literature_search.py
"""

from repro.access import PickAccess, TermJoin
from repro.core.operators import PickCriterion
from repro.core.scoring import WeightedCountScorer
from repro.core.trees import tree_from_document
from repro.engine import (
    Limit,
    Materialize,
    Sort,
    TermJoinScan,
    execute,
    explain,
)
from repro.workload import CorpusSpec, generate_corpus


def main() -> None:
    # A 60-article corpus with topic terms planted at known frequencies.
    store = generate_corpus(CorpusSpec(
        n_articles=60,
        planted_terms={
            "consensus": 150, "distributed": 120,
            "failure": 90, "recovery": 60,
        },
        seed=2026,
    ))
    print("corpus:", store)

    scorer = WeightedCountScorer(
        primary=["consensus", "distributed"],
        secondary=["failure", "recovery"],
    )
    terms = ["consensus", "distributed", "failure", "recovery"]

    # Pipelined plan: TermJoin scan -> sort by score -> top 5 -> fetch.
    store.counters.reset()
    plan = Materialize(
        Limit(Sort(TermJoinScan(store, terms, TermJoin(store, scorer))), 5),
    )
    top5 = execute(plan)

    print("\nphysical plan (with row counts):")
    print(explain(plan))

    print("\ntop 5 elements:")
    for tree in top5:
        doc = store.document(tree.root.source[0])
        print(f"  score={tree.score:6.2f}  <{tree.root.tag}>  "
              f"in {doc.name}")

    print("\nlogical I/O:", store.counters.snapshot())

    # Granularity control: run Pick over the best article so nested
    # redundant answers collapse to the right level.
    best_article = max(
        (t for t in top5 if t.root.tag == "article"),
        key=lambda t: t.score,
        default=top5[0],
    )
    doc = store.document(best_article.root.source[0])
    article_tree = tree_from_document(doc)
    # score every node first (what the Score clause would do)
    for node in article_tree.nodes():
        node.score = scorer.score_node(node)
    picker = PickAccess(PickCriterion(
        relevance_threshold=0.8, qualification=0.5,
        ignore_zero_children=True,
    ))
    picked, _pruned = picker.run(article_tree)
    print(f"\nPick on the best article: {len(picked)} irredundant "
          f"answers out of {article_tree.n_nodes()} nodes:")
    for node in picked[:6]:
        print(f"  <{node.tag}> score={node.score:.2f}")


if __name__ == "__main__":
    main()
