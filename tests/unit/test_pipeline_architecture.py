"""Architecture guard: one function stages a served query.

``repro.resilience.run.run_query_guarded`` is the only caller of the two
guarded executors and the only place the cache tiers are probed, filled
and checked out (docs/performance.md, "Execution pipeline").  These
tests walk the source tree so a later change cannot quietly re-fork the
path with a second dispatcher.
"""

import ast
import os

import repro

SRC = os.path.dirname(repro.__file__)
PIPELINE = os.path.join("resilience", "run.py")


def modules():
    for dirpath, _dirs, files in os.walk(SRC):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path, encoding="utf-8") as f:
                    yield os.path.relpath(path, SRC), ast.parse(f.read())


def called_name(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def callers_of(*names):
    """Relative paths of the modules that call any of ``names``."""
    return {
        rel for rel, tree in modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and called_name(node) in names
    }


def test_guarded_executors_are_called_only_by_the_pipeline():
    assert callers_of("execute_guarded", "evaluate_guarded") == {PIPELINE}


def test_plan_pool_is_checked_out_only_by_the_pipeline():
    # PlanCache.acquire/release: the pool's one customer.  (``acquire``
    # and ``release`` are also lock/admission verbs, so match the
    # receiver too: ``<x>.plans.acquire``.)
    users = set()
    for rel, tree in modules():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("acquire", "release")
                    and isinstance(node.func.value, ast.Attribute)
                    and node.func.value.attr == "plans"):
                users.add(rel)
    assert users == {PIPELINE}


def test_query_cache_holds_tiers_and_runs_nothing():
    from repro.perf import QueryCache

    public = {n for n in vars(QueryCache) if not n.startswith("_")}
    assert public == {"normalize", "stats"}  # so: no run_query* method


def test_removed_dispatchers_stay_removed():
    from repro import cli

    for name in ("_query_guarded", "_query_analyze", "_query_planned"):
        assert not hasattr(cli, name)
