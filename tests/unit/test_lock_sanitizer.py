"""Runtime lock-rank check: wrapper semantics, the two ranks, Condition
compatibility, which allocations are checked, and env-var gating.

Only locks allocated by code in the ``repro`` package are checked, so
the tests take their locks from real repro objects: ``LRUCache`` and
``AdmissionController``/``StoreGate`` for non-leaf locks, the metrics
for leaf locks.  The ``lock_check`` fixture (``tests/conftest.py``)
installs the check and keeps the errors these tests provoke out of
the session's teardown assertion.
"""

import queue
import threading
from pathlib import Path

import pytest

import repro
from repro.analysis import sanitizer
from repro.analysis.sanitizer import LockRankError, _RealLock, _RealRLock
from repro.obs.metrics import Counter, Gauge
from repro.perf.lru import LRUCache
from repro.server.admission import AdmissionController, StoreGate
from repro.xmldb.store import XMLStore


def _plain():
    return LRUCache(4)._lock


def _cond():
    return AdmissionController()._cond


@pytest.fixture
def fresh(monkeypatch):
    """No check installed; the previous state is restored after."""
    was_active = sanitizer.active()
    sanitizer.uninstall()
    monkeypatch.setattr(sanitizer, "_ERRORS", [])
    yield
    if was_active:
        sanitizer.install()
    else:
        sanitizer.uninstall()


# ----------------------------------------------------------------------
# wrapper semantics
# ----------------------------------------------------------------------

class TestWrappers:
    def test_lock_protocol(self, lock_check):
        lock = _plain()
        assert not lock.locked()
        with lock:
            assert lock.locked()
            assert lock_check.held_sites() == [lock.site]
        assert not lock.locked()
        assert lock_check.held_sites() == []

    def test_nonblocking_acquire_failure(self, lock_check):
        lock = _plain()
        lock.acquire()
        try:
            in_other = []
            t = threading.Thread(
                target=lambda: in_other.append(lock.acquire(False)))
            t.start()
            t.join()
            assert in_other == [False]
        finally:
            lock.release()

    def test_rlock_is_reentrant(self, lock_check):
        rlock = _cond()._lock  # a Condition's own RLock
        with rlock:
            with rlock:
                assert lock_check.held_sites() == [rlock.site]
            assert rlock.locked()
        assert not rlock.locked()
        assert lock_check.errors() == []

    def test_condition_on_sanitized_rlock(self, lock_check):
        cond = _cond()
        done = []

        def waiter():
            with cond:
                while not done:
                    cond.wait(1.0)

        t = threading.Thread(target=waiter)
        t.start()
        with cond:
            done.append(True)
            cond.notify()
        t.join(5.0)
        assert not t.is_alive()
        # wait() released and re-took the lock: nothing leaks into
        # this thread's held list.
        assert lock_check.held_sites() == []
        assert lock_check.errors() == []


# ----------------------------------------------------------------------
# the two ranks
# ----------------------------------------------------------------------

class TestRanks:
    def test_two_conditions_nested_raise(self, lock_check):
        admission = AdmissionController()._cond
        gate = StoreGate(XMLStore())._cond
        with admission:
            with pytest.raises(LockRankError) as info:
                with gate:
                    pass
        message = str(info.value)
        assert "repro/server/admission.py" in message
        assert info.value.lock != info.value.held
        assert len(lock_check.errors()) == 1

    def test_nonleaf_under_nonleaf_raises_on_first_occurrence(
            self, lock_check):
        a, b = _plain(), _cond()
        with a:
            with pytest.raises(LockRankError) as info:
                b.acquire()
        assert "repro/perf/lru.py" in info.value.held
        assert "repro/server/admission.py" in info.value.lock
        assert not b._lock.locked()  # raised before it blocked
        assert lock_check.held_sites() == []

    def test_leaf_under_leaf_raises(self, lock_check):
        counter, gauge = Counter("c"), Gauge("g")
        assert counter._lock.leaf and gauge._lock.leaf
        with counter._lock:
            with pytest.raises(LockRankError, match="leaf lock takes no"):
                gauge.set(1)

    def test_nonleaf_then_metrics_lock_passes(self, lock_check):
        counter = Counter("c")
        with _plain():
            counter.inc()
            counter.inc()
        assert counter.value == 2
        assert lock_check.errors() == []

    def test_condition_wait_on_lock_held_alone_passes(self, lock_check):
        cond = _cond()
        with cond:
            assert cond.wait(0.01) is False
            assert lock_check.held_sites() == [cond._lock.site]
        assert lock_check.errors() == []

    def test_stdlib_allocated_lock_is_not_instrumented(self, lock_check):
        # Run the allocations in a frame whose code lives in the repro
        # package: a direct Lock() there is checked, but the Queue's
        # mutex is allocated by queue.py and stays real.
        repro_file = str(Path(repro.__file__).parent / "perf" / "lru.py")
        ns = {"queue": queue, "threading": threading}
        exec(compile("q = queue.Queue(); lock = threading.Lock()",
                     repro_file, "exec"), ns)
        assert isinstance(ns["lock"], sanitizer._CheckedLock)
        assert not isinstance(ns["q"].mutex, sanitizer._CheckedLock)


# ----------------------------------------------------------------------
# order: what used to need a graph is one comparison per acquire
# ----------------------------------------------------------------------

class TestOrdering:
    def test_consistent_order_is_clean(self, lock_check):
        a, counter = _plain(), Counter("c")
        for _ in range(2):
            with a:
                counter.inc()
        assert lock_check.errors() == []

    def test_inversion_is_a_violation(self, lock_check):
        a, b = _plain(), _cond()
        with a:
            with pytest.raises(LockRankError):
                with b:
                    pass
        with b:
            with pytest.raises(LockRankError):
                with a:
                    pass
        assert len(lock_check.errors()) == 2


# ----------------------------------------------------------------------
# deadlock: an ABBA wait raises before either thread blocks
# ----------------------------------------------------------------------

class TestDeadlock:
    def test_real_abba_deadlock_is_broken(self, lock_check):
        a, b = _plain(), _cond()
        barrier = threading.Barrier(2, timeout=5.0)
        errors = []

        def take(first, second):
            with first:
                barrier.wait()
                try:
                    with second:
                        pass
                except LockRankError as exc:
                    errors.append(exc)

        threads = [threading.Thread(target=take, args=(a, b)),
                   threading.Thread(target=take, args=(b, a))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10.0)
        assert not any(t.is_alive() for t in threads)
        assert len(errors) == 2

    def test_plain_contention_is_not_a_deadlock(self, lock_check):
        lock = _plain()
        hits = []

        def worker():
            with lock:
                hits.append(1)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(5.0)
        assert len(hits) == 4
        assert lock_check.errors() == []


# ----------------------------------------------------------------------
# global install / env gating
# ----------------------------------------------------------------------

class TestInstall:
    def test_install_patches_and_uninstall_restores(self, fresh):
        assert _plain().__class__ is type(_RealLock())
        sanitizer.install()
        assert sanitizer.active()
        a, b = _plain(), _cond()
        assert isinstance(a, sanitizer._CheckedLock)
        sanitizer.uninstall()
        assert not sanitizer.active()
        assert threading.Lock is _RealLock
        assert threading.RLock is _RealRLock
        # Checked locks outlive uninstall and pass straight through.
        with a:
            with b:
                pass
        assert sanitizer.errors() == []

    def test_install_is_idempotent(self, fresh):
        sanitizer.install()
        patched = threading.Lock
        sanitizer.install()
        assert threading.Lock is patched
        sanitizer.uninstall()
        assert threading.Lock is _RealLock

    def test_allocation_site_names_are_distinct(self, lock_check):
        admission = AdmissionController()._cond._lock
        gate = StoreGate(XMLStore())._cond._lock
        # Both are Condition()'s RLock: named by the repro line that
        # built the Condition, not by threading.py.
        assert admission.site != gate.site
        for site in (admission.site, gate.site):
            assert site.startswith("repro/server/admission.py:")
            assert "self._cond = threading.Condition()" in site

    def test_env_gate_off(self, fresh, monkeypatch):
        monkeypatch.delenv(sanitizer.ENV_VAR, raising=False)
        assert sanitizer.install_from_env() is False
        assert threading.Lock is _RealLock

    def test_env_gate_on(self, fresh, monkeypatch):
        monkeypatch.setenv(sanitizer.ENV_VAR, "1")
        assert sanitizer.install_from_env() is True
        assert sanitizer.active()
