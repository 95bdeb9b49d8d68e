"""Whole-harness smoke: every workload, check and traced stage, twice.

Slow for a unit test (three ``--smoke`` passes over all four workloads)
but still seconds; it is what a CI job would run.
"""

import json
import os
import re
import subprocess
import sys

import pytest

from conftest import STACK
from run import load_contract

CONTRACT = load_contract()
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def smoke(tmp_path, tag, trace):
    path = tmp_path / f"{tag}.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(STACK, "run.py"), "--workload", "all",
         "--seed", "5", "--smoke", "--trace", str(trace),
         "--json-out", str(path)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    records = json.loads(path.read_text())["results"]
    assert [r["workload"] for r in records] == [
        w["name"] for w in CONTRACT["workloads"]]
    return records, proc.stdout


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("smoke")
    return {"e2e": smoke(tmp, "e2e", 0), "traced": smoke(tmp, "t1", 1),
            "again": smoke(tmp, "t2", 1)}


def test_every_workload_answers_correctly(runs):
    for records, _ in runs.values():
        for r in records:
            assert r["smoke"] is True
            assert r["correct"] and r["failed"] == 0 and r["attempted"] > 0


@pytest.mark.parametrize("kind,key", [("e2e", "end_to_end"),
                                      ("traced", "per_layer")])
def test_emitted_names_are_exactly_the_declared_ones(runs, kind, key):
    want = {m["name"]: m["unit"] for m in CONTRACT[key]}
    records, stdout = runs[kind]
    for r in records:
        got = {n: m["unit"] for n, m in r["metrics"].items()}
        assert got == want
        assert all(NAME.match(n) for n in got)
    last = json.loads(stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == set(want)


def test_every_per_layer_metric_is_measured_somewhere(runs):
    records, _ = runs["traced"]
    measured = set()
    for r in records:
        measured |= set(r["metrics"]) - set(r["info"]["zero_filled"])
    assert measured == {m["name"] for m in CONTRACT["per_layer"]}


def test_end_to_end_metrics_are_never_zero(runs):
    for r in runs["e2e"][0]:
        assert all(m["value"] > 0 for m in r["metrics"].values())


def test_exact_counters_repeat_bit_for_bit(runs):
    for a, b in zip(runs["traced"][0], runs["again"][0]):
        exact = a["info"]["exact"]
        assert exact and exact == b["info"]["exact"]
        for name in exact:
            assert a["metrics"][name]["value"] == \
                b["metrics"][name]["value"], (a["workload"], name)


def test_every_traced_run_carries_its_null_control(runs):
    """Two identical sides of the interleaved comparison, reported next
    to the overhead shares they calibrate.  A smoke pass is too short
    for the ratio to mean anything, so only its presence is checked."""
    import math

    for r in runs["traced"][0]:
        nulls = r["info"]["null_overhead_share"]
        assert nulls and all(math.isfinite(x) for x in nulls), r["workload"]


def test_traced_runs_check_answers_on_every_workload(runs):
    # reload checks alone are three
    for r in runs["traced"][0]:
        assert r["attempted"] > 10, (r["workload"], r["attempted"])


def test_served_workloads_use_the_caches_oppositely(runs):
    by_name = {r["workload"]: r["metrics"] for r in runs["traced"][0]}
    assert by_name["served_repeat"]["perf.result_cache.hit_share"][
        "value"] > 0.95
    assert by_name["served_unique"]["perf.result_cache.hit_share"][
        "value"] == 0
    assert by_name["served_unique"]["perf.plan_cache.evictions"][
        "value"] > 0


def test_run_refuses_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's
    own files there is nothing to measure: exit non-zero, no result."""
    import shutil

    root = tmp_path / "bare"
    shutil.copytree(STACK, root / "benchmarks" / "stack",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(STACK, "..", "..", "BENCHMARK.json"), root)
    proc = subprocess.run(
        [sys.executable, "benchmarks/stack/run.py", "--workload",
         "paper_sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
