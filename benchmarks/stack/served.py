"""The closed-loop load generator and the server child process.

Closed loop: the generator — one thread, one connection — sends its
next operation only after the previous one was answered.  A measured
window is made of *rounds*: lists of operations of identical
composition (one sweep of the paper's grid, one 100-query block with
the exact class mix, one Zipf round).  Rounds run whole until
``seconds`` have passed, and every end-to-end timing is taken per round
first (see ``workloads.Outcome.add_rounds``).

One caller, because the server is one interpreter on one core: measured
on five identical runs, a second closed-loop caller adds no throughput
(34.8 vs 31.8 ops/s on served_unique) and doubles latency (p50 22.5 →
47.6 ms), each request now waiting out the other caller's.  Latency
then is a mixture of "went straight through" and "waited behind a light
/ a heavy request", and its median jumps between the modes from run to
run: p50 spread 44% with two callers, 8% with one, on served_repeat.
Readers still race a writer on ingest_update.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import subprocess
import sys
from time import perf_counter
from typing import (
    Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence,
)

import measure

_HERE = os.path.dirname(os.path.abspath(__file__))


class Done(NamedTuple):
    """One completed operation: what was asked, what came back (a
    workload-defined summary, ``None`` when the call raised), how long
    the caller waited."""

    op: Any
    summary: Any
    latency_s: float
    error: str


class Round(NamedTuple):
    done: List[Done]
    started: float    # perf_counter() at the round's first operation
    elapsed_s: float


class Window(NamedTuple):
    rounds: List[Round]
    elapsed_s: float
    cpu_s: float  # generator process CPU over the window


#: Fewest rounds a window may hold: quartiles over rounds need a few.
MIN_ROUNDS = 4


def closed_loop(rounds: Iterator[Sequence[Any]],
                do_op: Callable[[Any], Any], seconds: float,
                on_done: Optional[Callable[[], None]] = None) -> Window:
    """Run whole rounds from ``rounds`` through ``do_op`` for at least
    ``seconds`` and at least :data:`MIN_ROUNDS` rounds."""
    out: List[Round] = []
    gc.collect()
    cpu0 = measure.cpu_seconds()
    started = perf_counter()
    while len(out) < MIN_ROUNDS or perf_counter() - started < seconds:
        ops = next(rounds)
        done: List[Done] = []
        round_started = perf_counter()
        for op in ops:
            summary, error = None, ""
            t0 = perf_counter()
            try:
                summary = do_op(op)
            except Exception as exc:  # a failed operation, not a crash
                error = f"{type(exc).__name__}: {exc}"
            done.append(Done(op, summary, perf_counter() - t0, error))
            if on_done is not None:
                on_done()
        out.append(Round(done, round_started,
                         perf_counter() - round_started))
    elapsed = perf_counter() - started
    return Window(out, elapsed, measure.cpu_seconds() - cpu0)


# ----------------------------------------------------------------------
# Answers
# ----------------------------------------------------------------------

class Answer(NamedTuple):
    """What the harness keeps of one query answer."""

    n_rows: int
    digest: str       # scores and serialized rows, in rank order
    n_bytes: int
    flagged: bool     # truncated or degraded


def answer_of(rows: Sequence[Any], flagged: bool = False) -> Answer:
    """Summarize ``(score, xml)`` pairs."""
    h = hashlib.sha256()
    n_bytes = 0
    for score, xml in rows:
        data = f"{score!r}\0{xml}\0".encode("utf-8")
        n_bytes += len(data)
        h.update(data)
    return Answer(len(rows), h.hexdigest(), n_bytes, flagged)


def remote_answer(result: Any) -> Answer:
    return answer_of([(r.score, r.xml) for r in result.rows],
                     result.truncated or result.degraded)


def local_answer(trees: Sequence[Any]) -> Answer:
    """The same summary for in-process results, serialized the way the
    server serializes them."""
    return answer_of([(getattr(t, "score", None), t.to_xml())
                      for t in trees])


# ----------------------------------------------------------------------
# The server child
# ----------------------------------------------------------------------

class ServerProcess:
    """``server_child.py`` over a saved store.  ``port`` is set once the
    child printed its ready line; :meth:`stop` returns its totals."""

    def __init__(self, store_dir: str) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, os.path.join(_HERE, "server_child.py"),
             store_dir],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            self.port = int(self._read_line()["port"])
        except BaseException:
            self.kill()
            raise

    def _read_line(self) -> Dict[str, Any]:
        assert self._proc.stdout is not None
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"server child exited with {self._proc.wait()} "
                "before answering"
            )
        return json.loads(line)

    def stop(self) -> Dict[str, Any]:
        assert self._proc.stdin is not None
        try:
            self._proc.stdin.write("quit\n")
            self._proc.stdin.close()
            totals = self._read_line()
            self._proc.wait(timeout=30)
            return totals
        finally:
            self.kill()

    def kill(self) -> None:
        """Make sure the child is gone (a no-op after :meth:`stop`)."""
        if self._proc.poll() is None:
            self._proc.kill()
        self._proc.wait()
        for pipe in (self._proc.stdin, self._proc.stdout):
            if pipe is not None:
                pipe.close()

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc: object) -> None:
        self.kill()
