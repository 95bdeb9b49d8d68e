"""The layered benchmark's entry point.

    python3 benchmarks/stack/run.py --workload NAME|all --seed N \\
        [--seconds S] [--trace [0|1]] [--smoke] [--json-out FILE]

Prints every metric by name with its unit, then — as the last line of
standard output — one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  With ``--trace 0`` (the default) the metrics are the
end-to-end ones of ``BENCHMARK.json``; with ``--trace 1`` the per-layer
ones.  Exits non-zero on a wrong answer.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")


def load_contract() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def declared(contract: Dict[str, Any], trace: bool) -> Dict[str, str]:
    """``name -> unit`` of the metrics this kind of run must print."""
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in contract[key]}


def finish_metrics(raw: Dict[str, float], units: Dict[str, str],
                   trace: bool) -> Dict[str, Dict[str, Any]]:
    """The declared metric set, no more and no less.  A per-layer metric
    the workload does not exercise reads 0; an end-to-end metric must be
    measured on every workload."""
    unknown = sorted(set(raw) - set(units))
    if unknown:
        raise SystemExit(f"undeclared metrics produced: {unknown}")
    missing = sorted(set(units) - set(raw))
    if missing and not trace:
        raise SystemExit(f"end-to-end metrics not measured: {missing}")
    return {name: {"value": raw.get(name, 0), "unit": unit}
            for name, unit in units.items()}


def run_one(args: argparse.Namespace, contract: Dict[str, Any]) -> int:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program to measure: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import inputs
    import measure
    import traced
    import workloads

    sizes = inputs.SMOKE if args.smoke else inputs.FULL
    seconds = args.seconds
    if seconds is None:
        seconds = 0.3 if args.smoke else float(contract["run_seconds"])
    workdir = os.path.join(OUT_DIR, f"run-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.trace:
            outcome = traced.run(args.workload, args.seed, sizes, seconds,
                                 workdir, OUT_DIR)
        else:
            outcome = workloads.RUNNERS[args.workload](
                args.seed, sizes, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = declared(contract, bool(args.trace))
    if args.trace:
        outcome.info["zero_filled"] = sorted(
            set(units) - set(outcome.metrics))
    metrics = finish_metrics(outcome.metrics, units, bool(args.trace))
    correct = not outcome.failures
    print(f"== {args.workload}  seed={args.seed}  trace={args.trace}"
          f"{'  SMOKE' if args.smoke else ''}")
    for name, m in metrics.items():
        print(f"{name:45s} {m['value']:>16.6g} {m['unit']}")
    for name, value in outcome.info.items():
        print(f"  info {name} = {value}")
    for failure in outcome.failures[:20]:
        print(f"  FAILED {failure}")
    result = {"correct": correct, "attempted": outcome.attempted,
              "failed": len(outcome.failures), "metrics": metrics}
    if args.json_out:
        record = dict(result, workload=args.workload, seed=args.seed,
                      trace=args.trace, smoke=args.smoke, info=outcome.info,
                      env=dict(measure.environment(ROOT), seed=args.seed,
                               seconds=seconds, sizes=vars(sizes)))
        with open(args.json_out, "w", encoding="utf-8") as f:
            json.dump({"results": [record]}, f, indent=1, default=str)
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args: argparse.Namespace, contract: Dict[str, Any]) -> int:
    """Each workload in its own process, so one's memory and caches
    never show in another's numbers."""
    os.makedirs(OUT_DIR, exist_ok=True)
    records: List[Dict[str, Any]] = []
    worst = 0
    for w in contract["workloads"]:
        part = os.path.join(OUT_DIR, f"part-{os.getpid()}-{w['name']}.json")
        cmd = [sys.executable, os.path.abspath(__file__),
               "--workload", w["name"], "--seed", str(args.seed),
               "--trace", str(args.trace), "--json-out", part]
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        if args.smoke:
            cmd.append("--smoke")
        worst = max(worst, subprocess.run(cmd).returncode)
        if os.path.exists(part):
            with open(part, encoding="utf-8") as f:
                records.extend(json.load(f)["results"])
            os.remove(part)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as f:
            json.dump({"results": records}, f, indent=1)
    return worst


def main(argv: List[str]) -> int:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured window (default: BENCHMARK.json's "
                         "run_seconds)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1))
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for CI; never for reporting")
    ap.add_argument("--json-out", metavar="FILE")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args, contract)
    return run_one(args, contract)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
