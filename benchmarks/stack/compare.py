"""Compare two sets of benchmark runs.

    python3 benchmarks/stack/compare.py A1.json A2.json … -- B1.json …

The files are ``run.py --json-out`` results; A is the parent, B the
change.  For every workload × end-to-end metric this prints each side's
median and quartiles and a verdict against the metric's bound in
``BENCHMARK.json``:

- ``within-bound`` — B's median is no worse than A's by more than the
  bound;
- ``regressed`` — it is worse by more than the bound;
- ``unresolved`` — either side's quartile spread is wider than the
  bound, so the runs cannot tell.

Exits 1 if anything regressed.  Refuses smoke output, and sides that
were run with different seeds, window lengths or input sizes.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Any, Dict, List, Sequence, Tuple

from run import load_contract


def load_side(paths: Sequence[str]) -> List[Dict[str, Any]]:
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as f:
            records.extend(r for r in json.load(f)["results"]
                           if not r["trace"])
    if not records:
        raise SystemExit(f"no end-to-end results in {list(paths)}")
    if any(r["smoke"] for r in records):
        raise SystemExit("refusing smoke output: it is never for reporting")
    return records


def run_shape(records: Sequence[Dict[str, Any]]) -> Tuple[Any, ...]:
    """What both sides must share for their numbers to be comparable."""
    return (
        sorted({(r["workload"], r["seed"]) for r in records}),
        sorted({json.dumps([r["env"]["seconds"], r["env"]["sizes"]],
                           sort_keys=True) for r in records}),
    )


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: Sequence[float], b: Sequence[float], better: str,
            bound: float) -> Tuple[str, float]:
    """``(verdict, share by which B's median is worse than A's)``."""
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    worse = (bm - am) / am if better == "lower" else (am - bm) / am
    if max((a3 - a1) / am, (b3 - b1) / bm) > bound:
        return "unresolved", worse
    return ("regressed" if worse > bound else "within-bound"), worse


def main(argv: Sequence[str]) -> int:
    if "--" not in argv:
        raise SystemExit(__doc__)
    cut = list(argv).index("--")
    side_a, side_b = load_side(argv[:cut]), load_side(argv[cut + 1:])
    if run_shape(side_a) != run_shape(side_b):
        raise SystemExit(
            "refusing to compare: the two sides differ in workloads, "
            "seeds, window length or input sizes")
    contract = load_contract()
    regressed = False
    for w in contract["workloads"]:
        name = w["name"]
        runs_a = [r for r in side_a if r["workload"] == name]
        runs_b = [r for r in side_b if r["workload"] == name]
        if not runs_a:
            continue
        print(f"{name}  ({len(runs_a)} vs {len(runs_b)} runs)")
        for m in contract["end_to_end"]:
            a = [r["metrics"][m["name"]]["value"] for r in runs_a]
            b = [r["metrics"][m["name"]]["value"] for r in runs_b]
            v, worse = verdict(a, b, m["better"], m["bound"])
            regressed |= v == "regressed"
            qa, qb = quartiles(a), quartiles(b)
            print(f"  {m['name']:18s} {m['unit']:4s}"
                  f"  A {qa[1]:10.4g} [{qa[0]:.4g}, {qa[2]:.4g}]"
                  f"  B {qb[1]:10.4g} [{qb[0]:.4g}, {qb[2]:.4g}]"
                  f"  worse by {worse:+7.2%} of {m['bound']:.0%}  {v}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
