"""Unit tests for the bench harness and the CLI."""

import json
import os
import subprocess
import sys

import pytest

import repro
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
        # EXPLAIN ANALYZE comes from the one pipeline: ``query --analyze``
        doc = tmp_path / "a.xml"
        doc.write_text("<a><b>hello queries</b></a>")
        rc = main([
            "query", "--doc", f"a.xml={doc}", "-q", self.EXPLAINABLE,
            "--analyze",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "est_rows=" in out and "q_error=" in out
        assert "time=" in out

    def test_explain_json(self, tmp_path, capsys):
        doc = tmp_path / "a.xml"
        doc.write_text("<a><b>hello queries</b></a>")
        rc = main([
            "query", "--doc", f"a.xml={doc}", "-q", self.EXPLAINABLE,
            "--analyze", "--json",
        ])
        assert rc == 0
        tree = json.loads(capsys.readouterr().out)["plan"]
        assert tree["est_rows"] is not None
        assert tree["q_error"] >= 1.0
        assert tree["children"]
        # ``tix explain --json`` is the same tree before execution
        assert main([
            "explain", "--doc", f"a.xml={doc}", "-q", self.EXPLAINABLE,
            "--json",
        ]) == 0
        before = json.loads(capsys.readouterr().out)
        assert before["est_rows"] == tree["est_rows"]
        # not executed: no actuals, and no q-error against them
        assert before["rows"] is None and before["q_error"] is None

    def test_stats_serves_from_catalog(self, tmp_path, capsys):
        doc = tmp_path / "a.xml"
        doc.write_text("<a><b>hello hello queries</b></a>")
        assert main(["stats", "--doc", f"a.xml={doc}"]) == 0
        out = capsys.readouterr().out
        assert "hello                2" in out
        assert "avg depth" in out

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

    def test_strict_trip_still_prints_the_json_report(self, tmp_path,
                                                      capsys):
        # Regression: a strict trip under --analyze --json exited 3 with
        # an empty stdout, leaving a JSON reader nothing to parse.
        doc = tmp_path / "a.xml"
        doc.write_text("<a><b>hello queries</b><c>more queries</c></a>")
        assert main(["query", "--doc", f"a.xml={doc}", "-q",
                     self.EXPLAINABLE, "--analyze", "--json",
                     "--max-rows", "1"]) == 3
        captured = capsys.readouterr()
        assert "query aborted" in captured.err
        report = json.loads(captured.out)
        assert report["aborted"] == "query exceeded its row budget of 1"
        assert report["n_results"] == 0
        assert report["metrics"]["guard.trips.rows"] == 1
        assert report["trace"]["n_spans"] > 0
        assert report["store_counters"]["postings_read"] > 0

    @pytest.mark.parametrize("command", ["query", "explain"])
    def test_no_planner_flags(self, command, capsys):
        # one fixed plan per compiled query: nothing to choose or force
        with pytest.raises(SystemExit):
            main([command, "--help"])
        usage = capsys.readouterr().out
        for flag in ("--planner", "--force-op", "--feedback"):
            assert flag not in usage

    @pytest.mark.parametrize("flags, message", [
        (["--trace-capacity", "0"], "must be positive, got 0"),
        (["--max-inflight", "0"], "must be positive, got 0"),
        (["--trace-sample", "2"], "must be in [0, 1], got 2"),
        (["--sample-rate", "2", "--audit-log", "audit.jsonl"],
         "must be in [0, 1], got 2"),
    ], ids=["trace-capacity", "max-inflight", "trace-sample", "sample-rate"])
    def test_serve_rejects_out_of_range_options(self, tmp_path, flags,
                                                message):
        # The ValueError of the trace store, admission controller or
        # audit sink used to escape as a traceback with status 1.  In a
        # child process with a timeout: a server that did start would
        # otherwise block the suite.
        src = os.path.dirname(os.path.dirname(repro.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             *flags],
            cwd=tmp_path, capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines()[-1].endswith(message)
        assert not (tmp_path / "audit.jsonl").exists()

    def test_serve_warmup_fills_the_cache_it_serves_from(self, tmp_path,
                                                         capsys):
        # ``tix serve -q Q`` used to warm a cache the server never saw,
        # so the first served copy of a warm query missed.
        doc = tmp_path / "a.xml"
        doc.write_text("<a><b>hello queries</b><c>more queries</c></a>")
        src = os.path.dirname(os.path.dirname(repro.__file__))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--doc", f"a.xml={doc}", "-q", self.EXPLAINABLE],
            cwd=tmp_path, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        try:
            line = ""
            while not line.startswith("serving on"):
                line = proc.stderr.readline()
                assert line, "server exited before serving"
            port = line.split()[2].rsplit(":", 1)[1]
            client = ["client", "--port", port]
            assert main([*client, "-q", self.EXPLAINABLE]) == 0
            assert "(3 results" in capsys.readouterr().out
            assert main([*client, "--stats"]) == 0
            metrics = json.loads(capsys.readouterr().out)["metrics"]
            assert metrics["batch.queries"] >= 1
            assert metrics.get("cache.result.hits", 0) == 1
        finally:
            proc.terminate()
            assert proc.wait(timeout=60) == 0
            proc.stderr.close()

    def test_bench_profile_prints_each_cell(self, capsys):
        assert main(["bench", "table5", "--scale", "0.02", "--runs", "1",
                     "--profile"]) == 0
        out = capsys.readouterr().out
        profiles = json.loads(out[out.index("\n{") + 1:])
        assert set(profiles) == {str(q) for q in range(1, 14)}
        cell = profiles["1"]["PhraseFinder"]
        assert cell["wall_clock_s"] > 0
        assert len(cell) > 1  # metrics beside the wall clock

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
