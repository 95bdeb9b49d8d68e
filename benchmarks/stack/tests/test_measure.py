"""Band means, quartiles, spans and self-time arithmetic."""

import pytest

import measure
from measure import Span, SpanRecorder


def test_band_mean_averages_the_ranks_of_the_band():
    samples = list(range(1, 101))  # 1..100, shuffled order must not matter
    assert measure.band_mean(samples, (40, 60)) == 50.5    # 41..60
    assert measure.band_mean(samples[::-1], (90, 99)) == 95.0  # 91..99
    # 74 cells: ranks 67..74, the top hundredth being less than a cell
    assert measure.band_mean(list(range(74)), measure.P95_BAND) == 69.5


def test_band_mean_ignores_what_lies_above_the_band():
    calm = list(range(1, 101))
    paused = calm[:-1] + [100_000]   # one collector pause
    assert (measure.band_mean(paused, measure.P95_BAND)
            == measure.band_mean(calm, measure.P95_BAND))


def test_band_mean_refuses_a_band_of_fewer_than_five_samples():
    assert measure.band_mean(list(range(50)), (90, 100)) == 47.0
    with pytest.raises(ValueError, match="need 5"):
        measure.band_mean(list(range(40)), (90, 99))
    with pytest.raises(ValueError):
        measure.band_mean([], (40, 60))


def test_quartile_interpolates_between_ranks():
    rounds = [10.0, 50.0, 20.0, 40.0, 30.0]
    assert measure.quartile(rounds, 1) == 20.0
    assert measure.quartile(rounds, 3) == 40.0
    assert measure.quartile([1.0, 2.0, 3.0, 4.0], 1) == 1.75
    with pytest.raises(ValueError):
        measure.quartile([1.0], 1)


def test_median():
    assert measure.median([3, 1, 2]) == 2
    assert measure.median([4, 1, 2, 3]) == 2.5


def span(name, start, end, parent):
    s = Span(name, start, parent, None)
    s.end = end
    return s


def test_self_time_is_duration_minus_direct_children():
    spans = [
        span("op", 0.0, 10.0, -1),
        span("a", 1.0, 4.0, 0),
        span("b", 2.0, 3.0, 1),      # grandchild: charged to a, not op
        span("a", 5.0, 9.0, 0),
        span("op", 10.0, 12.0, -1),
    ]
    got = measure.self_times(spans)
    assert got == {"op": (10 - 3 - 4) + 2, "a": (3 - 1) + 4, "b": 1.0}
    # self times partition the root spans' wall
    assert sum(got.values()) == 12.0


def test_recorder_nests_and_inherits_the_operation_id():
    rec = SpanRecorder()
    with rec.span("op", op=7):
        with rec.span("inner") as inner:
            inner.name = "renamed"
    with rec.span("op", op=8):
        pass
    assert [(s.name, s.parent, s.op) for s in rec.spans] == [
        ("op", -1, 7), ("renamed", 0, 7), ("op", -1, 8)]
    assert all(s.end >= s.start for s in rec.spans)


def test_disabled_recorder_records_nothing():
    rec = SpanRecorder(enabled=False)
    with rec.span("op") as s:
        assert s is None
    assert rec.spans == []


def test_interleaved_runs_every_side_on_every_op_and_rotates_the_start():
    calls = []
    sides = {name: (lambda i, op, n=name: calls.append((i, op, n)))
             for name in ("a", "b", "c")}
    times = measure.interleaved(["x", "y", "z", "w"], sides)
    assert {n: len(t) for n, t in times.items()} == {"a": 4, "b": 4, "c": 4}
    # every (op, side) pair exactly once, sides of one op adjacent
    assert sorted(calls) == sorted(
        (i, op, n) for i, op in enumerate("xyzw") for n in "abc")
    assert [c[0] for c in calls] == [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3]
    # the side that goes first rotates: a, b, c, a
    assert [calls[3 * i][2] for i in range(4)] == ["a", "b", "c", "a"]


def test_overhead_share_is_a_ratio_of_walls():
    times = {"base": [1.0, 1.0], "slow": [1.5, 1.5], "same": [1.0, 1.0]}
    assert measure.overhead_share(times, "slow", "base") == 0.5
    assert measure.overhead_share(times, "same", "base") == 0.0
