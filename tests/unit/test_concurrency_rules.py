"""The concurrency rules: two lock ranks, checked where each lock is
taken at runtime, and the class-local ``lock-discipline`` lint rule.

The runtime half replaces the whole-program lock graph: lock order,
self-deadlock and a blocking wait under another lock are all one
comparison against the calling thread's held locks
(``repro.analysis.sanitizer``).  The static half keeps what the
runtime check cannot see: a lock-owning class writing its state
outside its lock.  Lint fixture trees live anywhere under ``repro/``;
every class that owns a lock is in scope.
"""

import textwrap

import pytest

from repro import obs
from repro.analysis import lint
from repro.analysis.sanitizer import LockRankError
from repro.errors import OverloadedError
from repro.perf.lru import LRUCache
from repro.server.admission import AdmissionController

_REGISTRIES = {
    "repro/obs/catalog.py": "CATALOG = {}\n",
    "repro/resilience/faultinject.py": "FAULT_POINTS = {}\n",
}


def run_lint(tmp_path, files, rules):
    root = tmp_path / "src"
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text), encoding="utf-8")
    return lint(root=root, rules=rules)


def messages(result):
    return [f"{f.path}:{f.line} {f.message}" for f in result.findings]


# ----------------------------------------------------------------------
# lock order, at runtime
# ----------------------------------------------------------------------

class TestLockOrder:
    def test_abba_cycle_is_reported_with_witness(self, lock_check):
        # The first half of an ABBA pair already breaks the rule: no
        # second thread, and no second order, is needed to report it.
        cache, admission = LRUCache(4)._lock, AdmissionController()._cond
        with cache:
            with pytest.raises(LockRankError) as info:
                with admission:
                    pass
        # The error names both locks by their allocation sites.
        assert info.value.held.startswith("repro/perf/lru.py:")
        assert info.value.lock.startswith("repro/server/admission.py:")
        assert "self._lock = threading.Lock()" in str(info.value)

    def test_dag_is_clean(self, lock_check):
        # AdmissionController records its metrics while holding _cond:
        # non-leaf before leaf, the one nesting the rule allows.
        adm = AdmissionController()
        with obs.collecting() as col:
            adm.release(adm.admit())
        assert col.metrics.snapshot()["server.admitted"] == 1
        assert lock_check.errors() == []

    def test_self_deadlock_on_nonreentrant_lock(self, lock_check):
        lock = LRUCache(4)._lock
        with lock:
            # Raised instead of hanging forever on the held Lock.
            with pytest.raises(LockRankError):
                lock.acquire()

    def test_rlock_reacquire_is_fine(self, lock_check):
        cond = AdmissionController()._cond
        with cond:
            with cond:
                pass
        assert lock_check.errors() == []


# ----------------------------------------------------------------------
# waiting under a lock, at runtime
# ----------------------------------------------------------------------

class TestBlockingUnderLock:
    def test_wait_on_only_held_condition_is_exempt(self, lock_check):
        adm = AdmissionController(max_inflight=1, queue_timeout_s=0.01)
        ticket = adm.admit()
        # The queued request waits on _cond, held alone, and times out.
        with pytest.raises(OverloadedError):
            adm.admit()
        adm.release(ticket)
        assert lock_check.errors() == []

    def test_wait_while_holding_another_lock_is_reported(
            self, lock_check):
        cache, adm = LRUCache(4), AdmissionController()
        with cache._lock:
            with pytest.raises(LockRankError):
                adm.admit()
        assert adm._inflight == 0
        assert len(lock_check.errors()) == 1


# ----------------------------------------------------------------------
# shared state: lock-discipline's domain
# ----------------------------------------------------------------------

class TestSharedStateRace:
    def test_lock_owning_class_is_lock_disciplines_domain(
            self, tmp_path):
        files = {
            **_REGISTRIES,
            "repro/server/escape.py": """
                import threading

                class Tally:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self.n = 0

                    def bump(self):
                        self.n += 1

                class Runner:
                    def __init__(self):
                        self.tally = Tally()

                    def start(self):
                        t = threading.Thread(target=self.tally.bump)
                        t.start()
            """,
        }
        result = run_lint(tmp_path, files, ["lock-discipline"])
        assert messages(result) == [
            "repro/server/escape.py:10 Tally.bump mutates self.n "
            "outside `with self._lock:` — a data race across the "
            "threads sharing this object",
        ]


# ----------------------------------------------------------------------
# class-local lock-discipline
# ----------------------------------------------------------------------

class TestGeneralizedLockDiscipline:
    RULES = ["lock-discipline"]

    def test_server_module_is_now_in_scope(self, tmp_path):
        files = {
            **_REGISTRIES,
            "repro/server/state.py": """
                import threading

                class S:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self.n = 0

                    def bump(self):
                        self.n += 1
            """,
        }
        result = run_lint(tmp_path, files, self.RULES)
        assert len(result.findings) == 1
        assert "S.bump mutates self.n" in result.findings[0].message

    def test_condition_attr_counts_as_the_lock(self, tmp_path):
        files = {
            **_REGISTRIES,
            "repro/server/state.py": """
                import threading

                class S:
                    def __init__(self):
                        self._cond = threading.Condition()
                        self.n = 0

                    def bump(self):
                        with self._cond:
                            self.n += 1
            """,
        }
        result = run_lint(tmp_path, files, self.RULES)
        assert result.findings == [], messages(result)

    def test_private_helper_called_under_lock_is_exempt(
            self, tmp_path):
        files = {
            **_REGISTRIES,
            "repro/perf/state.py": """
                import threading

                class S:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self.n = 0

                    def bump(self):
                        with self._lock:
                            self._inc()

                    def _inc(self):
                        self.n += 1
            """,
        }
        result = run_lint(tmp_path, files, self.RULES)
        assert result.findings == [], messages(result)

    def test_private_helper_called_once_without_lock_is_checked(
            self, tmp_path):
        files = {
            **_REGISTRIES,
            "repro/perf/state.py": """
                import threading

                class S:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self.n = 0

                    def bump(self):
                        with self._lock:
                            self._inc()

                    def reset(self):
                        self._inc()

                    def _inc(self):
                        self.n += 1
            """,
        }
        result = run_lint(tmp_path, files, self.RULES)
        assert len(result.findings) == 1
        assert "S._inc mutates self.n" in result.findings[0].message

    def test_event_mutator_is_exempt(self, tmp_path):
        files = {
            **_REGISTRIES,
            "repro/obs/state.py": """
                import threading

                class S:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._stop = threading.Event()

                    def halt(self):
                        self._stop.clear()
            """,
        }
        result = run_lint(tmp_path, files, self.RULES)
        assert result.findings == [], messages(result)


def test_thread_allocated_in_repro_is_started_outside_locks(lock_check):
    # Thread.start waits on the new thread's Event, a checked lock when
    # the Thread is built in repro code: the query server therefore
    # starts its accept thread after releasing its own lock.
    from repro.server.server import QueryServer
    from repro.xmldb.store import XMLStore

    server = QueryServer(XMLStore(), port=0).start()
    try:
        assert server._accept_thread.is_alive()
    finally:
        assert server.close()
    assert lock_check.errors() == []
