"""Architecture guard: one function stages a served query.

``repro.resilience.run.run_query_guarded`` is the only caller of the two
guarded executors and the only place the cache tiers are probed and
filled (docs/performance.md, "Execution pipeline").  These
tests walk the source tree so a later change cannot quietly re-fork the
path with a second dispatcher.
"""

import ast
import os

import pytest

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


def test_no_module_checks_plans_out_of_the_cache():
    # ``cache.plans`` is only the frozen benchmark harness's contract.
    # (``acquire`` and ``release`` are also lock/admission verbs, so
    # match the receiver too: ``<x>.plans.acquire``.)
    users = {
        rel for rel, tree in modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("acquire", "release")
        and isinstance(node.func.value, ast.Attribute)
        and node.func.value.attr == "plans"
    }
    assert users == set()


def test_compile_query_is_called_only_by_the_pipeline():
    # Every answer miss compiles afresh in the pipeline; besides it only
    # ``tix explain`` (estimates, never executed) and the harness shim
    # compile.
    assert callers_of("compile_query") == {
        PIPELINE, "cli.py", os.path.join("perf", "querycache.py"),
    }


def test_no_module_outside_the_pipeline_executes_a_plan():
    # Plans run only through ``execute_guarded`` in the pipeline, under
    # its guard, request record and cache; ``engine.execute`` is left
    # for tests and ablations that drive an operator tree by hand.
    assert callers_of("execute") == set()


def test_query_cache_holds_tiers_and_runs_nothing():
    from repro.perf import QueryCache

    public = {n for n in vars(QueryCache) if not n.startswith("_")}
    assert public == {"normalize", "stats"}  # so: no run_query* method


def test_no_module_selects_a_plan():
    # One plan per compiled query: the two selection entry points are
    # only the frozen benchmark harness's contract.
    optimizer = os.path.join("plan", "optimizer.py")
    assert callers_of("make_selection", "choose_plan") <= {optimizer}


def test_removed_dispatchers_stay_removed():
    from repro import cli

    for name in ("_query_guarded", "_query_analyze", "_query_planned"):
        assert not hasattr(cli, name)


def test_every_operator_is_built_by_the_compiler():
    # One physical engine: each concrete Operator subclass in the source
    # tree is constructed in the compiler, so an operator no plan builds
    # cannot come back unnoticed.
    names = {
        node.name for _rel, tree in modules()
        for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
        if any(isinstance(b, ast.Name) and b.id == "Operator"
               for b in node.bases)
    }
    compiler = dict(modules())[os.path.join("query", "compiler.py")]
    built = {called_name(node) for node in ast.walk(compiler)
             if isinstance(node, ast.Call)}
    assert {"TermJoinScan", "StructuralFilter", "Materialize"} <= names
    assert names <= built, sorted(names - built)


def test_no_feedback_command(capsys):
    from repro.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["feedback", "audit.jsonl"])
    assert exc.value.code == 2  # argparse: invalid choice
    assert "invalid choice: 'feedback'" in capsys.readouterr().err


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
