"""Unit tests for the bench harness and the CLI."""

import pytest

from repro.bench.harness import BenchResult, render_table, timed_trimmed_mean
from repro.cli import main


class TestTimedTrimmedMean:
    def test_returns_positive(self):
        t = timed_trimmed_mean(lambda: sum(range(1000)), runs=5)
        assert t > 0

    def test_single_run(self):
        t = timed_trimmed_mean(lambda: None, runs=1)
        assert t >= 0

    def test_calls_fn_runs_times(self):
        calls = []
        timed_trimmed_mean(lambda: calls.append(1), runs=4)
        assert len(calls) == 4


class TestBenchResult:
    def make(self):
        r = BenchResult("T", ["freq", "A", "B"])
        r.add_row(20, 0.5, 1.0)
        r.add_row(100, 1.5, 2.0)
        return r

    def test_cell(self):
        r = self.make()
        assert r.cell(20, "A") == 0.5
        assert r.cell(100, "B") == 2.0
        with pytest.raises(KeyError):
            r.cell(999, "A")

    def test_column(self):
        assert self.make().column("A") == [0.5, 1.5]

    def test_render_contains_rows(self):
        text = self.make().render()
        assert "T" in text and "freq" in text
        assert "0.50" in text and "100" in text

    def test_notes_rendered(self):
        r = self.make()
        r.notes.append("hello note")
        assert "hello note" in r.render()

    def test_render_formats(self):
        text = render_table("x", ["c"], [[1234.5678], [0.0001234]])
        assert "1234.6" in text
        assert "0.0001" in text


class TestCLI:
    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "Figure 6" in out and "Figure 8" in out
        assert "chapter" in out

    def test_query_from_args(self, tmp_path, capsys):
        doc = tmp_path / "a.xml"
        doc.write_text("<a><b>hello there</b></a>")
        rc = main([
            "query",
            "--doc", f"a.xml={doc}",
            "-q", 'For $x in document("a.xml")//b Return $x',
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "1 results" in out and "hello" in out

    def test_query_from_file(self, tmp_path, capsys):
        doc = tmp_path / "a.xml"
        doc.write_text("<a><b>hi</b></a>")
        qf = tmp_path / "q.xq"
        qf.write_text('For $x in document("a.xml")//b Return $x')
        assert main(["query", "--doc", f"a.xml={doc}", "-f", str(qf)]) == 0

    def test_query_requires_source(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["query"])

    def test_bad_doc_spec(self):
        with pytest.raises(SystemExit):
            main(["query", "--doc", "nopath", "-q", "For $a in $b Return $a"])

    EXPLAINABLE = (
        'For $x in document("a.xml")//a/descendant-or-self::* '
        'Score $x using ScoreFooExact($x, {"queries"}) '
        'Return $x Sortby(score)'
    )

    def test_explain(self, tmp_path, capsys):
        doc = tmp_path / "a.xml"
        doc.write_text("<a><b>hello queries</b></a>")
        rc = main([
            "explain", "--doc", f"a.xml={doc}", "-q", self.EXPLAINABLE,
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "termjoin-scan" in out
        assert "(est_rows=1)" in out  # 'queries' appears once

    def test_explain_analyze(self, tmp_path, capsys):
        doc = tmp_path / "a.xml"
        doc.write_text("<a><b>hello queries</b></a>")
        rc = main([
            "explain", "--doc", f"a.xml={doc}", "-q", self.EXPLAINABLE,
            "--analyze",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "est_rows=" in out and "q_error=" in out
        assert "time=" in out

    def test_explain_json(self, tmp_path, capsys):
        import json as _json

        doc = tmp_path / "a.xml"
        doc.write_text("<a><b>hello queries</b></a>")
        rc = main([
            "explain", "--doc", f"a.xml={doc}", "-q", self.EXPLAINABLE,
            "--analyze", "--json",
        ])
        assert rc == 0
        tree = _json.loads(capsys.readouterr().out)
        assert tree["est_rows"] is not None
        assert tree["q_error"] >= 1.0
        assert tree["children"]

    def test_stats_serves_from_catalog(self, tmp_path, capsys):
        doc = tmp_path / "a.xml"
        doc.write_text("<a><b>hello hello queries</b></a>")
        assert main(["stats", "--doc", f"a.xml={doc}"]) == 0
        out = capsys.readouterr().out
        assert "hello                2" in out
        assert "avg depth" in out

    def test_feedback_cli(self, tmp_path, capsys):
        import json as _json

        log = tmp_path / "audit.jsonl"
        log.write_text(_json.dumps({
            "v": 3, "query_sha256": "ab", "ops": [
                {"operator": "sort", "rows": 2, "est_rows": 8.0,
                 "q_error": 4.0, "time_ms": 0.1},
            ],
        }) + "\n")
        assert main(["feedback", str(log)]) == 0
        out = capsys.readouterr().out
        assert "worst-misestimated operators" in out and "sort" in out
        assert main(["feedback", str(log), "--json"]) == 0
        report = _json.loads(capsys.readouterr().out)
        assert report["operators"][0]["median_qerror"] == 4.0

    def test_query_planner_heuristic(self, tmp_path, capsys):
        doc = tmp_path / "a.xml"
        doc.write_text("<a><b>hello queries</b></a>")
        rc = main([
            "query", "--doc", f"a.xml={doc}", "-q", self.EXPLAINABLE,
            "--planner", "heuristic",
        ])
        assert rc == 0
        assert "results" in capsys.readouterr().out

    def test_query_force_op_matches_default(self, tmp_path, capsys):
        doc = tmp_path / "a.xml"
        doc.write_text("<a><b>hello queries</b></a>")
        assert main([
            "query", "--doc", f"a.xml={doc}", "-q", self.EXPLAINABLE,
        ]) == 0
        plain = capsys.readouterr().out
        assert main([
            "query", "--doc", f"a.xml={doc}", "-q", self.EXPLAINABLE,
            "--force-op", "score=Comp2",
        ]) == 0
        forced = capsys.readouterr().out
        assert forced == plain  # same answer, different physical plan

    def test_query_analyze_composes_with_the_guard(self, tmp_path, capsys):
        # Regression: --analyze + a guard flag printed the metrics but
        # silently dropped the EXPLAIN ANALYZE tree.
        doc = tmp_path / "a.xml"
        doc.write_text("<a><b>hello queries</b><c>more queries</c></a>")
        base = ["query", "--doc", f"a.xml={doc}", "-q", self.EXPLAINABLE,
                "--analyze"]
        assert main(base) == 0
        plain = capsys.readouterr().out
        assert "EXPLAIN ANALYZE" in plain and "guard." not in plain
        assert main(base + ["--max-rows", "1", "--degrade"]) == 0
        out = capsys.readouterr().out
        assert "(1 results, truncated:" in out
        assert "EXPLAIN ANALYZE" in out and "termjoin-scan" in out
        assert "q_error=" in out
        assert "guard.checks" in out and "guard.trips.rows: 1" in out
        assert out.index("EXPLAIN ANALYZE") < out.index("guard.checks")
        # strict trip: status 3, metrics still reported (stderr)
        assert main(base + ["--max-rows", "1"]) == 3
        captured = capsys.readouterr()
        assert "query aborted" in captured.err
        assert "guard.trips.rows: 1" in captured.err

    def test_query_bad_force_op_is_rc2(self, tmp_path, capsys):
        doc = tmp_path / "a.xml"
        doc.write_text("<a><b>hello queries</b></a>")
        rc = main([
            "query", "--doc", f"a.xml={doc}", "-q", self.EXPLAINABLE,
            "--force-op", "score=Nope",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "planner:" in err and "not a legal option" in err

    def test_query_unknown_decision_point_is_rc2(self, tmp_path, capsys):
        doc = tmp_path / "a.xml"
        doc.write_text("<a><b>hello queries</b></a>")
        rc = main([
            "query", "--doc", f"a.xml={doc}", "-q", self.EXPLAINABLE,
            "--force-op", "rank=topk",
        ])
        assert rc == 2
        assert "unknown decision point" in capsys.readouterr().err

    def test_explain_planner_footer_and_force(self, tmp_path, capsys):
        doc = tmp_path / "a.xml"
        doc.write_text("<a><b>hello queries</b></a>")
        assert main([
            "explain", "--doc", f"a.xml={doc}", "-q", self.EXPLAINABLE,
        ]) == 0
        out = capsys.readouterr().out
        assert "planner:" in out and "rejected" in out
        assert main([
            "explain", "--doc", f"a.xml={doc}", "-q", self.EXPLAINABLE,
            "--force-op", "score=Comp2",
        ]) == 0
        forced = capsys.readouterr().out
        assert "source=forced" in forced

    AUDIT_RECORD = {
        "v": 3, "query_sha256": "ab", "ops": [
            {"operator": "termjoin-scan", "rows": 2, "est_rows": 8.0,
             "q_error": 4.0, "time_ms": 0.1},
        ],
    }

    def test_query_feedback_flag(self, tmp_path, capsys):
        import json as _json

        doc = tmp_path / "a.xml"
        doc.write_text("<a><b>hello queries</b></a>")
        log = tmp_path / "audit.jsonl"
        log.write_text(_json.dumps(self.AUDIT_RECORD) + "\n")
        rc = main([
            "query", "--doc", f"a.xml={doc}", "-q", self.EXPLAINABLE,
            "--feedback", str(log),
        ])
        assert rc == 0
        assert "results" in capsys.readouterr().out

    def test_feedback_corrections_json(self, tmp_path, capsys):
        import json as _json

        log = tmp_path / "audit.jsonl"
        log.write_text(_json.dumps(self.AUDIT_RECORD) + "\n")
        assert main(["feedback", str(log), "--corrections"]) == 0
        factors = _json.loads(capsys.readouterr().out)
        assert factors  # est 8 vs actual 2 -> a real correction
        assert all(0.1 <= v <= 10.0 for v in factors.values())

    def test_bench_planner_cli(self, capsys):
        rc = main(["bench", "planner", "--scale", "0.1", "--runs", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "planner" in out.lower()

    def test_bench_pick_small(self, capsys, monkeypatch):
        import repro.cli as cli_mod
        import repro.workload.benchspec as bs

        monkeypatch.setattr(bs, "PICK_INPUT_SIZES", [100, 200])
        # run through the bench dispatch with the patched sizes
        from repro.bench import run_pick_experiment

        res = run_pick_experiment(sizes=[100, 200], runs=1)
        out = capsys.readouterr().out
        assert "Pick experiment" in out
        assert len(res.rows) == 2
