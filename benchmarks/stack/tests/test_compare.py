"""compare.py verdicts and refusals, on synthetic result files."""

import json

import pytest

import compare
from run import load_contract

E2E = load_contract()["end_to_end"]


def result_file(tmp_path, name, scale=1.0, seed=1, smoke=False,
                jitter=0.0, seconds=15):
    records = []
    for i in range(5):
        wobble = 1.0 + jitter * (i - 2)
        records.append({
            "workload": "paper_sweep", "seed": seed, "trace": 0,
            "smoke": smoke,
            "metrics": {m["name"]: {"value": 100.0 * wobble * (
                scale if m["name"] == "latency_p50_ms" else 1.0),
                "unit": m["unit"]} for m in E2E},
            "env": {"seconds": seconds, "sizes": {"warmup_ops": 20}},
        })
    path = tmp_path / name
    path.write_text(json.dumps({"results": records}))
    return str(path)


def test_same_runs_are_within_bound(tmp_path, capsys):
    a = result_file(tmp_path, "a.json")
    b = result_file(tmp_path, "b.json", scale=1.05)
    assert compare.main([a, "--", b]) == 0
    out = capsys.readouterr().out
    assert out.count("within-bound") == len(E2E)


def test_a_slower_median_regresses_and_exits_1(tmp_path, capsys):
    a = result_file(tmp_path, "a.json")
    b = result_file(tmp_path, "b.json", scale=1.3)
    assert compare.main([a, "--", b]) == 1
    out = capsys.readouterr().out
    assert "latency_p50_ms" in out and out.count("regressed") == 1


def test_wide_spread_is_unresolved_not_unchanged(tmp_path, capsys):
    a = result_file(tmp_path, "a.json", jitter=0.2)
    b = result_file(tmp_path, "b.json", jitter=0.2)
    assert compare.main([a, "--", b]) == 0
    assert "unresolved" in capsys.readouterr().out


def test_refuses_smoke_mixed_seeds_and_mixed_windows(tmp_path):
    a = result_file(tmp_path, "a.json")
    with pytest.raises(SystemExit, match="smoke"):
        compare.main([a, "--", result_file(tmp_path, "s.json", smoke=True)])
    with pytest.raises(SystemExit, match="differ"):
        compare.main([a, "--", result_file(tmp_path, "d.json", seed=2)])
    with pytest.raises(SystemExit, match="differ"):
        compare.main([a, "--", result_file(tmp_path, "w.json", seconds=5)])


def test_higher_is_better_metrics_regress_downwards():
    assert compare.verdict([100] * 5, [80] * 5, "higher", 0.1)[0] \
        == "regressed"
    assert compare.verdict([100] * 5, [120] * 5, "higher", 0.1)[0] \
        == "within-bound"
    assert compare.verdict([100] * 5, [120] * 5, "lower", 0.1)[0] \
        == "regressed"
