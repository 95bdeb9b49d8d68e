"""Regenerate EXPERIMENTS.md: run every experiment and write the
paper-vs-measured report.

Usage:  python benchmarks/make_report.py [--scale S] [--runs N] [--out F]
                                         [--profile] [--json F]

``--profile`` runs every cell once more under the observability
collector (repro.obs) and attaches per-access-method metric breakdowns;
``--json`` writes every table — rows, notes, and any breakdowns — as a
machine-readable report.

At scale 1.0 the planted term frequencies equal the paper's (Table 5's
are 20× down — its terms occur up to 146k times in INEX, see the spec).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List

from repro.bench import (
    run_pick_experiment,
    run_table1,
    run_table2,
    run_table3,
    run_table4,
    run_table5,
)
from repro.bench.harness import BenchResult
from repro.workload import (
    generate_corpus,
    table123_spec,
    table4_spec,
    table5_spec,
)

# The paper's reported numbers (seconds), for side-by-side ratios.
PAPER_TABLE1 = {
    20: (0.01, 283.70, 0.01, 0.01),
    100: (0.09, 414.40, 0.03, 0.02),
    200: (0.36, 468.76, 0.05, 0.03),
    300: (1.66, 523.78, 0.17, 0.11),
    500: (2.92, 536.42, 2.01, 1.45),
    1000: (18.37, 613.15, 7.92, 5.77),
    2000: (42.64, 644.60, 27.29, 12.16),
    3000: (93.37, 655.87, 28.52, 16.34),
    5500: (492.98, 732.49, 30.28, 18.01),
    7000: (955.94, 766.07, 36.22, 19.42),
    10000: (1641.63, 840.53, 96.68, 20.55),
}
PAPER_TABLE2 = {
    20: (0.02, 285.56, 0.02, 0.02, 0.04),
    100: (0.10, 417.89, 0.10, 0.06, 0.08),
    200: (0.40, 474.73, 0.29, 0.15, 0.11),
    300: (1.68, 543.28, 1.05, 0.59, 0.21),
    500: (3.08, 547.15, 4.14, 2.37, 0.45),
    1000: (18.96, 622.58, 14.53, 7.65, 1.16),
    2000: (43.75, 675.57, 56.71, 24.67, 4.13),
    3000: (94.33, 688.06, 83.39, 27.94, 6.84),
    5500: (519.82, 742.09, 319.59, 28.32, 10.65),
    7000: (1070.95, 781.00, 331.79, 48.61, 15.46),
    10000: (1717.91, 852.35, 722.88, 81.60, 21.93),
}
PAPER_TABLE3 = {
    20: (3.72, 321.47, 3.45, 0.93, 0.48),
    200: (5.30, 576.21, 4.29, 1.44, 0.64),
    1000: (18.96, 622.58, 14.53, 7.65, 1.16),
    3000: (39.81, 655.10, 38.85, 11.87, 3.52),
    7000: (113.06, 735.98, 184.99, 29.51, 11.78),
}
PAPER_TABLE4 = {
    2: (20.49, 638.69, 22.39, 8.06, 2.08),
    3: (41.91, 801.82, 40.99, 14.13, 3.88),
    4: (53.53, 1072.16, 44.35, 16.09, 6.56),
    5: (71.56, 1342.76, 58.32, 23.84, 9.86),
    6: (225.60, 1625.05, 79.48, 34.59, 13.69),
    7: (329.70, 1892.78, 97.58, 45.44, 16.60),
}
PAPER_TABLE5 = {  # query -> (Comp3, PhraseFinder)
    1: (10.15, 1.33), 2: (3.04, 1.06), 3: (5.98, 2.04), 4: (6.36, 1.49),
    5: (4.30, 1.98), 6: (5.84, 2.15), 7: (5.10, 1.30), 8: (3.22, 1.34),
    9: (4.56, 1.82), 10: (3.82, 1.02), 11: (8.75, 1.74), 12: (4.12, 1.52),
    13: (5.84, 1.65),
}


def md_table(result: BenchResult, paper: dict, paper_cols: List[str]) -> str:
    """Render a BenchResult as a Markdown table with the paper's numbers
    interleaved (``paper[label] = tuple aligned with paper_cols``).

    Only timing columns (float cells) carry the seconds unit, and Pick's
    ``seconds`` column already names it; counts such as frequencies and
    result sizes are labelled ``(ours)``."""
    cols = ["param"]
    for i, c in enumerate(result.columns[1:], start=1):
        timed = all(isinstance(row[i], float) for row in result.rows)
        unit = ", s" if timed and c != "seconds" else ""
        cols.append(f"{c} (ours{unit})")
    for c in paper_cols:
        cols.append(f"{c} (paper, s)")
    lines = ["| " + " | ".join(cols) + " |",
             "|" + "---|" * len(cols)]
    for row in result.rows:
        label = row[0]
        cells = [str(label)]
        cells += [f"{v:.4f}" if isinstance(v, float) else str(v)
                  for v in row[1:]]
        paper_row = paper.get(label, ())
        cells += [f"{v:g}" for v in paper_row]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--out", default="EXPERIMENTS.md")
    ap.add_argument("--profile", action="store_true",
                    help="attach per-access-method metric breakdowns")
    ap.add_argument("--json", metavar="FILE",
                    help="also write all tables (with any profiles) "
                         "as a JSON report")
    args = ap.parse_args(argv)
    profile = args.profile

    t_start = time.time()
    print(f"building Table 1-3 corpus (scale {args.scale}) …")
    spec123, rows123 = table123_spec(scale=args.scale, n_articles=1200)
    store123 = generate_corpus(spec123)
    store123.index, store123.structure  # build up front

    r1 = run_table1(store123, rows123["table1"], runs=args.runs,
                    profile=profile)
    r2 = run_table2(store123, rows123["table1"], runs=args.runs,
                    profile=profile)
    r3 = run_table3(store123, rows123["table3"], runs=args.runs,
                    profile=profile)

    print("building Table 4 corpus …")
    spec4, rows4 = table4_spec(scale=args.scale, n_articles=400)
    store4 = generate_corpus(spec4)
    r4 = run_table4(store4, rows4, runs=args.runs, profile=profile)

    print("building Table 5 corpus …")
    spec5, rows5 = table5_spec(scale=0.05 * args.scale, n_articles=400)
    store5 = generate_corpus(spec5)
    r5 = run_table5(store5, rows5, runs=args.runs, profile=profile)

    rp = run_pick_experiment(runs=args.runs, profile=profile)

    if args.json:
        report = {
            "scale": args.scale,
            "runs": args.runs,
            "tables": [r.to_json()
                       for r in (r1, r2, r3, r4, r5, rp)],
        }
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=2, sort_keys=True)
        print(f"wrote {args.json}")

    print("running scoring-quality experiment …")
    from repro.workload import (
        build_relevance_workload, score_quality_experiment,
    )

    quality = score_quality_experiment(build_relevance_workload())
    quality_rows = "\n".join(
        f"| {r.scorer_name} | {r.precision_at_10:.2f} | "
        f"{r.average_precision:.2f} | {r.ndcg_at_10:.2f} |"
        for r in quality
    )

    doc = f"""# EXPERIMENTS — paper vs. measured

Generated by `python benchmarks/make_report.py --scale {args.scale}`
on a corpus of {store123.n_elements:,} elements / {store123.n_words:,}
words (Tables 1-3), {store4.n_elements:,} elements (Table 4),
{store5.n_elements:,} elements (Table 5).  Total run time
{time.time() - t_start:.0f}s.

**How to read these numbers.**  The paper ran C++ TIMBER against the
500 MB INEX corpus (18M elements) on 2003 hardware with a cold disk; we
run pure Python against an in-memory synthetic corpus ~200× smaller in
element count, with term frequencies planted at the paper's exact nominal
values (scale {args.scale}).  Absolute seconds are therefore incomparable
by design; what must and does reproduce is the *shape*: which technique
wins, how each scales with the sweep parameter, and where lines cross.

Headline shape checks (asserted programmatically in
`tests/integration/test_bench_shapes.py`):

- **TermJoin wins everywhere.**  In every row of Tables 1-4 TermJoin is
  the fastest full-featured technique, beating Comp1 by
  {r1.cell(10000, 'Comp1') / r1.cell(10000, 'TermJoin'):.0f}× and Comp2
  by {r1.cell(20, 'Comp2') / r1.cell(20, 'TermJoin'):.0f}× at the
  extremes of Table 1 (paper: ~80× and ~28,000× — the Comp2 ratio
  compresses with corpus size since its cost is one full element scan).
- **Comp1 grows steeply with frequency, Comp2 is nearly flat**, and the
  two cross inside the sweep (paper crossover ≈5,500; ours lands lower
  because our element table is ~200× smaller, which lowers Comp2's flat
  scan cost while Comp1's occurrence-driven cost stays at paper volume).
- **Generalized Meet sits between TermJoin and the composites**
  (paper: TermJoin up to 4-8× better; ours
  {r1.cell(10000, 'GenMeet') / r1.cell(10000, 'TermJoin'):.1f}× at
  Table 1's last row).
- **Enhanced TermJoin beats TermJoin under complex scoring**
  ({r2.cell(10000, 'TermJoin') / r2.cell(10000, 'EnhTermJoin'):.1f}× at
  10,000; paper up to 8×): the only difference is reading child counts
  from the structure index instead of navigating.
- **PhraseFinder beats Comp3 on every phrase** (paper up to 9×): checking
  offsets during the intersection avoids Comp3's fetch-and-rescan filter.
- **Pick is linear** in input size over 200→55,000 nodes (paper:
  0.01-1.03 s over the same range).

## Table 1 — two terms, equal frequency, simple scoring

{md_table(r1, PAPER_TABLE1, ["Comp1", "Comp2", "GenMeet", "TermJoin"])}

## Table 2 — two terms, equal frequency, complex scoring

{md_table(r2, PAPER_TABLE2,
          ["Comp1", "Comp2", "GenMeet", "TermJoin", "Enhanced"])}

## Table 3 — term1 fixed at 1,000, term2 varies, complex scoring

{md_table(r3, PAPER_TABLE3,
          ["Comp1", "Comp2", "GenMeet", "TermJoin", "Enhanced"])}

## Table 4 — 2..7 terms at frequency ≈1,500, complex scoring

{md_table(r4, PAPER_TABLE4,
          ["Comp1", "Comp2", "GenMeet", "TermJoin", "Enhanced"])}

## Table 5 — PhraseFinder vs Comp3, 13 two-term phrases

Planted frequencies are the paper's scaled 20× down (its phrase terms
occur up to 146,477 times in INEX); result sizes scale with them, and the
harness reports *measured* result sizes (random planting can split or
coincidentally form a few phrase occurrences).

{md_table(r5, PAPER_TABLE5, ["Comp3", "PhraseFinder"])}

## Pick (in-text experiment, §6)

Parent/child redundancy elimination, random scored trees:

{md_table(rp, {}, [])}

Paper: "between 0.01 to 1.03 seconds … input size ranging from 200 nodes
to 55,000 nodes."  The measured column grows linearly with input size,
matching the stack-based single-pass design.

## Scoring quality (the §6.1 accuracy claim, quantified)

The paper asserts the complex scoring function "is more accurate …
[it] makes a better use of XML's structure."  On the relevance-judged
workload of `repro.workload.relevance` — relevant sections are topical
throughout; distractors pack *more* occurrences into one buried
paragraph (the paper's own motivating case) — the metrics are:

| scorer | P@10 | MAP | nDCG@10 |
|---|---|---|---|
{quality_rows}

The simple (count-only) scorer ranks the buried distractors first; the
complex scorer's relevant-children ratio and proximity bonus recover the
planted ground truth.

## Figures 5-8 (exact reproduction)

Not timing experiments: the result *trees and scores* of Figures 5, 6, 7
and 8 and the Example 3.1 walkthrough reproduce exactly from the Figure 1
database — see `tests/integration/test_paper_figures.py`.

## Ablations (see `benchmarks/ablation_*.py`)

- `ablation_stack.py` — TermJoin's stack vs per-occurrence ancestor
  walks into a hash map: the stack wins increasingly with frequency.
- `ablation_childindex.py` — isolates the Enhanced-TermJoin difference
  (child counts from index vs navigation) and shows the navigation
  counters that explain it.
- `ablation_pick_histogram.py` — deriving Pick's relevance threshold
  from the §5.3 score histogram vs an exact sort: O(buckets) vs
  O(n log n) with a bounded, conservative quality difference.
"""

    with open(args.out, "w", encoding="utf-8") as f:
        f.write(doc)
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
