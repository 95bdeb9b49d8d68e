"""Unit tests for the resilience guard: deadlines, budgets, cancellation,
degrade mode, and the install machinery."""

import time

import pytest

from repro import obs
from repro.access.termjoin import TermJoin
from repro.core.scoring import WeightedCountScorer
from repro.engine import Materialize, Sort, TermJoinScan
from repro.engine.base import Operator, execute
from repro.errors import (
    QueryAbortedError,
    QueryCancelledError,
    QueryTimeoutError,
    ResourceExhaustedError,
    TIXError,
)
from repro.exampledata import example_store
from repro.resilience import (
    GUARD,
    CancellationToken,
    NullGuard,
    QueryGuard,
    current_guard,
    execute_guarded,
    guarded,
    install_guard,
    run_query_guarded,
    uninstall_guard,
)
from repro.resilience import guard as guard_module


@pytest.fixture()
def store():
    return example_store()


def _scan(store, term="search"):
    return TermJoinScan(store, [term],
                        TermJoin(store, WeightedCountScorer([term])))


class TestHierarchy:
    @pytest.mark.parametrize("exc_type", [
        QueryTimeoutError, ResourceExhaustedError, QueryCancelledError,
    ])
    def test_guard_errors_derive_from_aborted_and_tix(self, exc_type):
        assert issubclass(exc_type, QueryAbortedError)
        assert issubclass(exc_type, TIXError)


class TestToken:
    def test_token_starts_uncancelled(self):
        tok = CancellationToken()
        assert not tok.cancelled
        tok.cancel()
        assert tok.cancelled

    def test_cancelled_token_trips_on_tick(self):
        tok = CancellationToken()
        g = QueryGuard(token=tok)
        g.tick()  # fine while not cancelled
        tok.cancel()
        with pytest.raises(QueryCancelledError):
            g.tick()
        assert isinstance(g.tripped, QueryCancelledError)


class TestDeadline:
    def test_expired_deadline_trips(self):
        g = QueryGuard(timeout_ms=0)
        time.sleep(0.002)
        with pytest.raises(QueryTimeoutError, match="deadline"):
            g.tick()

    def test_unexpired_deadline_does_not_trip(self):
        g = QueryGuard(timeout_ms=60_000)
        for _ in range(100):
            g.tick()
        assert g.tripped is None
        assert g.remaining_ms > 0

    def test_negative_timeout_rejected(self):
        with pytest.raises(ValueError):
            QueryGuard(timeout_ms=-1)
        with pytest.raises(ValueError):
            QueryGuard(max_rows=-1)
        with pytest.raises(ValueError):
            QueryGuard(max_materialized=-1)


class TestInstall:
    def test_null_guard_default(self):
        assert isinstance(current_guard(), NullGuard)
        assert not current_guard().active
        # null guard methods are inert
        current_guard().tick()
        current_guard().count_materialized()

    def test_install_nests(self):
        g1, g2 = QueryGuard(), QueryGuard()
        install_guard(g1)
        try:
            assert guard_module.GUARD is g1
            install_guard(g2)
            assert guard_module.GUARD is g2
            uninstall_guard()
            assert guard_module.GUARD is g1
        finally:
            uninstall_guard()
        assert isinstance(guard_module.GUARD, NullGuard)

    def test_unbalanced_uninstall_raises(self):
        with pytest.raises(RuntimeError):
            uninstall_guard()

    def test_guarded_context_manager(self):
        g = QueryGuard()
        with guarded(g) as got:
            assert got is g
            assert guard_module.GUARD is g
        assert guard_module.GUARD is not g

    def test_module_level_guard_is_null_after_runs(self):
        # executors must always restore the null guard
        assert not guard_module.GUARD.active


class TestExecuteGuarded:
    def test_unguarded_semantics_preserved(self, store):
        plain = execute(_scan(store))
        res = execute_guarded(_scan(store), QueryGuard())
        assert not res.truncated
        assert [t.root.source for t in res.results] == \
            [t.root.source for t in plain]

    def test_row_budget_strict(self, store):
        with pytest.raises(ResourceExhaustedError, match="row budget"):
            execute_guarded(_scan(store), QueryGuard(max_rows=1))

    def test_row_budget_degrade_returns_prefix(self, store):
        full = execute(Sort(_scan(store)))
        res = execute_guarded(
            Sort(_scan(store)), QueryGuard(max_rows=2, degrade=True)
        )
        assert res.truncated
        assert isinstance(res.error, ResourceExhaustedError)
        assert "row budget" in res.reason
        assert [t.root.source for t in res.results] == \
            [t.root.source for t in full[:2]]

    def test_zero_row_budget_degrade(self, store):
        res = execute_guarded(
            _scan(store), QueryGuard(max_rows=0, degrade=True)
        )
        assert res.truncated and res.n_results == 0

    def test_exact_budget_still_trips(self, store):
        # The budget is a hard cap, not a LIMIT: a plan producing exactly
        # max_rows rows trips too (the governor cannot know no more rows
        # would come without computing the next one).
        n = len(execute(_scan(store)))
        res = execute_guarded(
            _scan(store), QueryGuard(max_rows=n, degrade=True)
        )
        assert res.truncated and res.n_results == n

    def test_timeout_degrade_closes_cleanly(self, store):
        g = QueryGuard(timeout_ms=0, degrade=True)
        time.sleep(0.002)
        plan = _scan(store)
        res = execute_guarded(plan, g)
        assert res.truncated
        assert isinstance(res.error, QueryTimeoutError)
        # pipeline was closed: the operator is reusable afterwards
        assert len(execute(plan)) == len(execute(_scan(store))) > 0

    def test_cancellation_mid_stream(self, store):
        tok = CancellationToken()

        class CancelAfter(Operator):
            name = "cancel-after"

            def __init__(self, child, n):
                super().__init__([child])
                self.n = n

            def _next(self):
                if self.rows_out + 1 > self.n:
                    tok.cancel()
                return self.children[0].next()

        g = QueryGuard(token=tok, degrade=True)
        res = execute_guarded(CancelAfter(_scan(store), 1), g)
        assert res.truncated
        assert isinstance(res.error, QueryCancelledError)
        assert res.n_results >= 1

    def test_trip_inside_open_degrades_to_empty(self, store):
        # Sort drains its child inside _open(); an already-expired
        # deadline trips there, before any row reaches the sink.
        g = QueryGuard(timeout_ms=0, degrade=True)
        time.sleep(0.002)
        res = execute_guarded(Sort(_scan(store)), g)
        assert res.truncated and res.n_results == 0

    def test_guard_result_iterable(self, store):
        res = execute_guarded(_scan(store), QueryGuard())
        assert len(list(res)) == res.n_results


class TestMaterializationBudget:
    def test_materialize_budget_trips(self, store):
        plan = Materialize(_scan(store, "technologies"))
        with pytest.raises(ResourceExhaustedError, match="materialization"):
            execute_guarded(plan, QueryGuard(max_materialized=0))

    def test_materialize_budget_degrade(self, store):
        plan = Materialize(_scan(store, "technologies"))
        res = execute_guarded(
            plan, QueryGuard(max_materialized=1, degrade=True)
        )
        assert res.truncated
        assert res.n_results == 1

    def test_materialize_counts_materializations(self, store):
        with guarded(QueryGuard()) as g:
            out = execute(Materialize(_scan(store)))
        assert g.materialized == len(out) > 0


class TestObsIntegration:
    def test_trips_and_checks_are_counted(self, store):
        with obs.collecting() as col:
            res = execute_guarded(
                _scan(store), QueryGuard(max_rows=1, degrade=True)
            )
        assert res.truncated
        snap = col.metrics.snapshot()
        assert snap["guard.trips.rows"] == 1
        assert snap["guard.checks"] >= 1
        assert snap["guard.rows"] == 1

    def test_no_collector_no_error(self, store):
        res = execute_guarded(
            _scan(store), QueryGuard(max_rows=1, degrade=True)
        )
        assert res.truncated  # publish() was a silent no-op


class TestRunQueryGuarded:
    QUERY = (
        'For $x in document("articles.xml")'
        '//article/descendant-or-self::* '
        'Score $x using ScoreFooExact($x, {"technologies"}) '
        'Return $x Sortby(score)'
    )

    def test_unguarded_equivalence(self, store):
        # A no-limit guard must not change what the guarded runner
        # produces (compare two guarded runs: one inert, one default).
        full = run_query_guarded(store, self.QUERY, QueryGuard())
        again = run_query_guarded(store, self.QUERY, QueryGuard())
        assert not full.truncated
        assert [t.score for t in again.results] == \
            [t.score for t in full.results]
        assert full.n_results >= 2

    def test_row_budget_prefix_is_correctly_ranked(self, store):
        full = run_query_guarded(store, self.QUERY, QueryGuard())
        res = run_query_guarded(
            store, self.QUERY, QueryGuard(max_rows=2, degrade=True)
        )
        assert res.truncated
        assert [t.score for t in res.results] == \
            [t.score for t in full.results[:2]]

    def test_strict_budget_raises(self, store):
        with pytest.raises(ResourceExhaustedError):
            run_query_guarded(store, self.QUERY, QueryGuard(max_rows=1))
