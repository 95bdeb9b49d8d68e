"""Benchmark harness shared by ``benchmarks/`` and the CLI.

- :mod:`repro.bench.harness` — paper-style timing (each measurement runs
  five times, the extremes are dropped, the remaining three averaged) and
  monospace table rendering;
- :mod:`repro.bench.tables` — one ``run_table*`` function per table and
  figure of §6, each returning the rows it printed so EXPERIMENTS.md and
  the tests can assert on the shapes.
"""

from repro.bench.harness import timed_trimmed_mean, render_table, BenchResult
from repro.bench.tables import (
    run_table1,
    run_table2,
    run_table3,
    run_table4,
    run_table5,
    run_pick_experiment,
)

__all__ = [
    "timed_trimmed_mean",
    "render_table",
    "BenchResult",
    "run_table1",
    "run_table2",
    "run_table3",
    "run_table4",
    "run_table5",
    "run_pick_experiment",
]
