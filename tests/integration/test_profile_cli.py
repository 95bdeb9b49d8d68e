"""End-to-end tests for ``tix query --analyze``, the one local way to
run a query and profile it."""

import json

import pytest

from repro.cli import main
from repro.query import parse_query
from repro.query.compiler import compile_query
from repro.xmldb.store import XMLStore

DOC_XML = (
    "<a><b>structured queries here</b>"
    "<c>more queries <d>nested queries</d></c></a>"
)
QUERY = (
    'For $x in document("articles.xml")//a/descendant-or-self::* '
    'Score $x using ScoreFooExact($x, {"queries"}) '
    'Return $x Sortby(score)'
)


@pytest.fixture()
def articles(tmp_path):
    doc = tmp_path / "articles.xml"
    doc.write_text(DOC_XML)
    return doc


def _analyze(articles, *flags):
    return main(["query", "--doc", f"articles.xml={articles}",
                 "-q", QUERY, "--analyze", *flags])


def _operator_names(plan):
    yield plan.name
    for child in plan.children:
        for name in _operator_names(child):
            yield name


def _find(node, name):
    if node["operator"] == name:
        return node
    for c in node["children"]:
        hit = _find(c, name)
        if hit:
            return hit
    return None


class TestProfileCLI:
    def test_every_plan_operator_in_output(self, articles, capsys):
        assert _analyze(articles) == 0
        out = capsys.readouterr().out
        store = XMLStore()
        store.load("articles.xml", articles.read_text())
        plan = compile_query(store, parse_query(QUERY))
        for name in set(_operator_names(plan)):
            assert name in out, f"operator {name} missing from report"
        assert "EXPLAIN ANALYZE" in out
        assert "time=" in out and "rows=" in out and "loops=" in out
        assert "postings_scanned=" in out     # access-method counter
        assert "phases:" in out and "parse" in out
        assert "execute.guarded" in out       # the one pipeline ran
        assert "store counters" in out
        assert "metrics:" in out
        # the results come first, the report after them
        assert out.index("(4 results)") < out.index("EXPLAIN ANALYZE")

    def test_json_output_machine_readable(self, articles, capsys):
        assert _analyze(articles, "--json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {
            "query", "compiled", "compile_error", "n_results",
            "truncated", "reason", "plan", "metrics", "trace",
            "store_counters",
        }
        assert doc["compiled"] is True and doc["compile_error"] is None
        assert doc["n_results"] > 0
        plan = doc["plan"]
        assert plan["rows"] >= 1
        assert plan["time_ms"] >= plan["self_time_ms"] >= 0.0
        scan = _find(plan, "termjoin-scan")
        assert scan is not None
        assert scan["counters"]["postings_scanned"] > 0
        assert doc["trace"]["n_spans"] > 0
        assert [s["name"] for s in doc["trace"]["spans"]] == ["query"]
        assert any(k.startswith("index.") for k in doc["metrics"])
        assert doc["store_counters"]["postings_read"] > 0

    def test_trace_out_writes_chrome_trace(self, articles, tmp_path,
                                           capsys):
        trace = tmp_path / "trace.json"
        assert _analyze(articles, "--trace-out", str(trace)) == 0
        assert f"chrome trace written to {trace}" in capsys.readouterr().out
        events = json.loads(trace.read_text())["traceEvents"]
        assert events
        names = {e["name"] for e in events}
        assert "query" in names
        assert any(n.startswith("open:") for n in names)

    def test_evaluator_fallback(self, articles, capsys):
        # No Score clause: the query is outside the compilable shape.
        rc = main(["query", "--doc", f"articles.xml={articles}",
                   "-q", 'For $x in document("articles.xml")//b Return $x',
                   "--analyze"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "(1 results)" in out
        assert ("plan: not compilable (evaluator fallback) — compiled "
                "shape needs For + Score clauses") in out
        assert "parse" in out and "execute.evaluate" in out

    def test_query_analyze_flag(self, articles, capsys):
        # without the flag: the same results and no report
        assert main(["query", "--doc", f"articles.xml={articles}",
                     "-q", QUERY]) == 0
        plain = capsys.readouterr().out
        assert "(4 results)" in plain and "phases:" not in plain
        assert _analyze(articles) == 0
        out = capsys.readouterr().out
        assert "(4 results)" in out and "phases:" in out
        assert "time=" in out and "loops=" in out

    @pytest.mark.parametrize("flags", [["--json"], ["--trace-out", "t.json"]])
    def test_report_flags_need_analyze(self, articles, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["query", "--doc", f"articles.xml={articles}",
                  "-q", QUERY, *flags])
        assert exc.value.code == 2
        assert "need --analyze" in capsys.readouterr().err


class TestProfileQueryAPI:
    def test_recorder_restored_and_report_complete(self, articles, capsys):
        from repro import obs

        before = obs.RECORDER
        assert _analyze(articles, "--json") == 0
        assert obs.RECORDER is before        # collector uninstalled
        d = json.loads(capsys.readouterr().out)
        assert d["compiled"]
        assert d["n_results"] > 0
        assert d["store_counters"]           # deltas, not absolutes
        assert d["plan"]["counters"] == {} or d["plan"]["counters"]


def test_removed_commands_stay_removed(articles, capsys):
    # ``tix query --analyze`` is the one local door: no second command
    # runs a query to profile it, and ``tix explain`` only compiles.
    for argv in (["profile", "-q", QUERY],
                 ["explain", "--analyze", "-q", QUERY]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--doc", f"articles.xml={articles}"])
        assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'profile'" in err
    assert "unrecognized arguments: --analyze" in err
