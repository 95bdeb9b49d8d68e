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


# -- one request record, one producer per fact, one renderer per view --

def functions_named(tree, *names):
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name in names]


def calls_in(func, name):
    return sum(1 for node in ast.walk(func)
               if isinstance(node, ast.Call) and called_name(node) == name)


def test_one_class_holds_a_requests_outcome_facts():
    owners = {
        (rel, node.name) for rel, tree in modules()
        for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
        if functions_named(node, "note_result", "note_error")
    }
    assert owners == {(os.path.join("obs", "events.py"), "QueryEvent")}

    from repro.obs import events, tracestore

    for name in tracestore.__all__:  # the store defines no record class
        assert not hasattr(getattr(tracestore, name), "summary"), name
    for module, name in ((events, "set_trace_id"),
                         (events, "current_trace_id"),
                         (tracestore, "Trace"),
                         (tracestore, "chrome_trace_from_dict")):
        assert not hasattr(module, name), name
    assert len(tracestore.__all__) + len(events.__all__) < 7 + 16


def test_query_answers_leave_through_one_send_and_one_error_mapping():
    server = dict(modules())[os.path.join("server", "server.py")]
    (handle,) = functions_named(server, "_handle_query")
    (answer,) = functions_named(server, "_answer")
    assert calls_in(handle, "_send") == 1
    assert calls_in(handle, "error_response") == 0
    assert calls_in(answer, "error_response") == 1
    assert calls_in(answer, "_send") == 0


def test_the_server_renders_no_trace_view():
    # Format handling is client-side (``tix trace --chrome-out``): no
    # module switches on a "chrome" format literal, and the one Chrome
    # exporter and the one span-tree renderer live next to ``Span``.
    literal = {
        rel for rel, tree in modules() for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value == "chrome"
    }
    assert literal == set()
    views = {
        (rel, node.name) for rel, tree in modules()
        for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
        if node.name in ("chrome_trace_events", "chrome_trace_from_dict",
                         "render_span_tree", "_render_span",
                         "_render_span_tree")
    }
    trace = os.path.join("obs", "trace.py")
    assert views == {(trace, "chrome_trace_events"),
                     (trace, "render_span_tree")}
