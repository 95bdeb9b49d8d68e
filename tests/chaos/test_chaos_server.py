"""Chaos tests for the serving stack: seeded frame-I/O faults, torn
frames, a slowloris peer, and killing the server mid-query.

The invariants, whatever the fault schedule: every request terminates
promptly with either a result, a typed error envelope, or a transport
error — never a hang — and the server keeps serving (or drains
cleanly) afterwards."""

import socket
import struct
import threading
import time

import pytest

from repro.errors import TIXError
from repro.exampledata import example_store
from repro.resilience import FaultSpec, injecting
from repro.resilience.run import GuardedResult
from repro.server import PooledClient, QueryServer
from repro.server.protocol import read_frame

pytestmark = pytest.mark.chaos

QUERY = (
    'For $x in document("articles.xml")//section '
    'Score $x using ScoreFoo($x, {"search engine"}, {"internet"}) '
    'Return $x Sortby(score)'
)


class TestFrameFaults:
    def test_injected_frame_io_faults_never_hang(self, chaos_seed):
        """Probabilistic faults on every frame read/write, both sides of
        the wire.  Each call must finish fast with a result, a typed
        error, or a transport error; the server must survive."""
        srv = QueryServer(example_store(), port=0).start()
        outcomes = []
        specs = [
            FaultSpec("server.frame_read", probability=0.15),
            FaultSpec("server.frame_write", probability=0.15),
        ]
        try:
            with injecting(specs, seed=chaos_seed) as injector:
                cl = PooledClient(srv.host, srv.port,
                                  call_timeout_s=5.0, seed=chaos_seed)
                for _ in range(25):
                    t0 = time.monotonic()
                    try:
                        res = cl.query(QUERY)
                        outcomes.append(("ok", res.n_results))
                    except TIXError as exc:
                        outcomes.append(("typed", type(exc).__name__))
                    except OSError as exc:
                        outcomes.append(("transport",
                                         type(exc).__name__))
                    assert time.monotonic() - t0 < 5.0
                cl.close()
                assert injector.fired  # the schedule actually fired
            assert len(outcomes) == 25
            n_ok = sum(1 for kind, _ in outcomes if kind == "ok")
            assert n_ok > 0  # retries recover some calls
            # faults gone: the server still serves (no poisoned state)
            with PooledClient(srv.host, srv.port,
                              call_timeout_s=5.0) as cl2:
                assert cl2.ping()
                assert cl2.query(QUERY).n_results > 0
        finally:
            assert srv.close(drain_s=2.0)

    def test_accept_faults_do_not_kill_the_listener(self, chaos_seed):
        srv = QueryServer(example_store(), port=0).start()
        try:
            with injecting(
                    [FaultSpec("server.accept", probability=0.5)],
                    seed=chaos_seed):
                with PooledClient(srv.host, srv.port,
                                  call_timeout_s=5.0,
                                  seed=chaos_seed) as cl:
                    ok = sum(
                        1 for _ in range(10)
                        if safe_query(cl) is not None
                    )
            # afterwards the accept loop must still be alive
            with PooledClient(srv.host, srv.port,
                              call_timeout_s=5.0) as cl2:
                assert cl2.query(QUERY).n_results > 0
            assert ok >= 0  # bounded outcomes, no hang is the invariant
        finally:
            assert srv.close(drain_s=2.0)


def safe_query(cl):
    try:
        return cl.query(QUERY)
    except (TIXError, OSError):
        return None


class TestHostilePeers:
    def test_torn_frames_from_many_peers(self, chaos_seed):
        """A swarm of peers sending truncated garbage: each gets a
        typed BAD_FRAME reply (when the prefix parsed) or a close, and
        a well-behaved client is unaffected throughout."""
        import random

        rng = random.Random(chaos_seed)
        srv = QueryServer(example_store(), port=0).start()
        try:
            with PooledClient(srv.host, srv.port,
                              call_timeout_s=5.0) as good:
                for _ in range(10):
                    claimed = rng.randrange(8, 256)
                    sent = rng.randrange(0, claimed)
                    with socket.create_connection(
                            (srv.host, srv.port), timeout=5.0) as bad:
                        bad.sendall(struct.pack("!I", claimed)
                                    + b"x" * sent)
                        bad.shutdown(socket.SHUT_WR)
                        try:
                            resp = read_frame(bad)
                        except (TIXError, OSError):
                            resp = None
                        if resp is not None:
                            assert resp["ok"] is False
                            assert resp["error"]["code"] == "BAD_FRAME"
                    assert good.query(QUERY).n_results > 0
        finally:
            assert srv.close(drain_s=2.0)

    def test_slowloris_is_evicted_within_the_idle_timeout(self):
        srv = QueryServer(example_store(), port=0,
                          idle_timeout_s=0.3).start()
        try:
            stall = socket.create_connection(
                (srv.host, srv.port), timeout=5.0)
            stall.sendall(struct.pack("!I", 64) + b"partial")
            stall.settimeout(5.0)
            t0 = time.monotonic()
            # the server must close the stalled connection, not wait
            # for the rest of the frame forever
            assert stall.recv(1) == b""
            assert time.monotonic() - t0 < 3.0
            stall.close()
            with PooledClient(srv.host, srv.port,
                              call_timeout_s=5.0) as cl:
                assert cl.query(QUERY).n_results > 0
        finally:
            assert srv.close(drain_s=2.0)


class TestKillMidQuery:
    def test_close_during_queries_answers_or_types_every_call(self):
        """Kill the server while a fleet is mid-flight: every call ends
        with a result, a typed rejection, or a transport error — and
        close() itself returns (drained or cancelled), never hangs."""
        release = threading.Event()

        def runner(source, guard):
            while not release.wait(0.01):
                try:
                    guard.tick()
                except Exception as exc:
                    if guard.degrade:
                        return GuardedResult(
                            [], truncated=True, reason=str(exc),
                            error=exc,
                        )
                    raise
            return GuardedResult(["<row/>"])

        srv = QueryServer(example_store(), port=0, max_inflight=4,
                          runner=runner).start()
        outcomes = []
        lock = threading.Lock()

        def worker(i):
            cl = PooledClient(srv.host, srv.port,
                              call_timeout_s=5.0, seed=i)
            try:
                res = cl.query(QUERY, degrade=True)
                out = ("answered", res.truncated)
            except TIXError as exc:
                out = ("typed", type(exc).__name__)
            except OSError as exc:
                out = ("transport", type(exc).__name__)
            finally:
                cl.close()
            with lock:
                outcomes.append(out)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(6)]
        for th in threads:
            th.start()
        time.sleep(0.15)  # let the fleet get in flight / queued
        t0 = time.monotonic()
        drained = srv.close(drain_s=0.2, cancel_grace_s=2.0)
        close_elapsed = time.monotonic() - t0
        release.set()
        for th in threads:
            th.join(10.0)
            assert not th.is_alive()
        assert close_elapsed < 8.0
        assert len(outcomes) == 6
        # in-flight degrade-mode calls were cancelled cooperatively and
        # still *answered* (truncated partials), so the drain completed
        assert drained is True
        answered = [o for o in outcomes if o[0] == "answered"]
        assert answered, outcomes
