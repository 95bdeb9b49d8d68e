"""Admission control and transactional read visibility for the server.

:class:`AdmissionController` is the overload ladder's first three
rungs, tied to the :class:`~repro.resilience.guard.QueryGuard` budgets
the fourth rung (degrade-to-partial) already speaks:

1. **queue** — beyond ``max_inflight`` concurrently executing
   requests, new arrivals wait up to ``queue_timeout_s``;
2. **reject** — a request still queued at the timeout is refused with
   a typed :class:`~repro.errors.OverloadedError` (wire code
   ``OVERLOADED``) instead of piling onto a saturated server;
3. **degrade** — while rejections are recent (*sustained* overload,
   see :meth:`AdmissionController.under_pressure`), admitted requests
   are marked ``degraded``: the server tightens their guard budgets
   and forces degrade mode, trading complete answers for partial ones
   so the server keeps answering instead of dying;
4. **drain** — :meth:`AdmissionController.drain` stops admission
   (:class:`~repro.errors.ShuttingDownError`) and waits for in-flight
   requests to finish, which is what lets ``SIGTERM`` answer every
   accepted request before sockets close.

:class:`StoreGate` provides the serving path's transactional read
visibility over ``store.generation``: queries run as *readers* pinned
to the generation observed at entry, document add/remove runs as the
exclusive *writer*.  The mutation itself updates the store's inverted
index and statistics by the changed document's share; before readers
re-enter, the writer touches the index, structure index and statistics,
which builds whatever the mutation dropped (the structure index, which
is rebuilt rather than maintained, or a structure whose update raised).
Readers therefore never observe a torn corpus (half-renumbered doc ids,
an index mid-update), and no build ever races among reader threads.
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from time import monotonic
from typing import TYPE_CHECKING, Deque, Dict, Iterator, Optional

from repro import obs as _obs
from repro.errors import OverloadedError, ShuttingDownError

if TYPE_CHECKING:
    from repro.xmldb.store import XMLStore

__all__ = ["AdmissionTicket", "AdmissionController", "StoreGate"]


@dataclass
class AdmissionTicket:
    """One admitted request: the generation pinned at admission, how
    long it queued, and whether the pressure ladder degraded it."""

    generation: int
    queued_ms: float = 0.0
    degraded: bool = False


class AdmissionController:
    """Semaphore-bounded admission with queueing, typed rejection,
    pressure-triggered degradation, and draining (module docstring).

    :param max_inflight: concurrently executing requests;
    :param queue_timeout_s: longest a request may wait for a slot;
    :param pressure_window_s: a rejection within this window marks the
        overload *sustained* — admitted requests degrade until the
        window empties.
    """

    def __init__(self, max_inflight: int = 8,
                 queue_timeout_s: float = 1.0,
                 pressure_window_s: float = 2.0) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.max_inflight = max_inflight
        self.queue_timeout_s = queue_timeout_s
        self.pressure_window_s = pressure_window_s
        self._cond = threading.Condition()
        self._inflight = 0
        self._waiting = 0
        self._draining = False
        self._rejections: Deque[float] = deque()
        # Lifetime tallies (also mirrored as metrics when collecting).
        self.admitted = 0
        self.rejected_overload = 0
        self.rejected_shutdown = 0
        self.degraded = 0

    # -- admission -------------------------------------------------------

    def admit(self, generation: int = 0) -> AdmissionTicket:
        """Admit one request, queueing up to the timeout.  Raises
        :class:`OverloadedError` on queue timeout and
        :class:`ShuttingDownError` while draining."""
        t0 = monotonic()
        deadline = t0 + self.queue_timeout_s
        rec = _obs.RECORDER
        with self._cond:
            while True:
                if self._draining:
                    self.rejected_shutdown += 1
                    if rec.enabled:
                        rec.count("server.rejected.shutdown")
                    raise ShuttingDownError(
                        "server is draining; request refused"
                    )
                if self._inflight < self.max_inflight:
                    break
                remaining = deadline - monotonic()
                if remaining <= 0:
                    self._note_rejection(t0)
                    self.rejected_overload += 1
                    if rec.enabled:
                        rec.count("server.rejected.overload")
                    raise OverloadedError(
                        f"server at max_inflight={self.max_inflight}; "
                        f"queued {self.queue_timeout_s * 1000.0:g} ms "
                        "without a slot"
                    )
                self._waiting += 1
                try:
                    self._cond.wait(remaining)
                finally:
                    self._waiting -= 1
            self._inflight += 1
            self.admitted += 1
            degraded = self._under_pressure_locked()
            if degraded:
                self.degraded += 1
            queued_ms = (monotonic() - t0) * 1000.0
            if rec.enabled:
                rec.count("server.admitted")
                rec.observe("server.queued_ms", queued_ms)
                rec.set_gauge("server.inflight", self._inflight)
                if degraded:
                    rec.count("server.degraded")
        return AdmissionTicket(
            generation=generation, queued_ms=queued_ms, degraded=degraded,
        )

    def release(self, ticket: AdmissionTicket) -> None:
        """Return the slot held by ``ticket`` (call after the response
        has been written, so draining implies *answered*)."""
        rec = _obs.RECORDER
        with self._cond:
            self._inflight -= 1
            if rec.enabled:
                rec.set_gauge("server.inflight", self._inflight)
            self._cond.notify_all()

    # -- pressure --------------------------------------------------------

    def _note_rejection(self, now: float) -> None:
        self._rejections.append(now)

    def _under_pressure_locked(self) -> bool:
        cutoff = monotonic() - self.pressure_window_s
        rejections = self._rejections
        while rejections and rejections[0] < cutoff:
            rejections.popleft()
        return bool(rejections)

    def under_pressure(self) -> bool:
        """Whether a rejection happened within the pressure window —
        the sustained-overload signal that degrades admitted work."""
        with self._cond:
            return self._under_pressure_locked()

    # -- draining --------------------------------------------------------

    @property
    def inflight(self) -> int:
        with self._cond:
            return self._inflight

    @property
    def draining(self) -> bool:
        with self._cond:
            return self._draining

    def drain(self, timeout_s: Optional[float] = None) -> bool:
        """Stop admitting and wait for in-flight requests to finish.
        Returns ``True`` when the last request released within the
        timeout (``None`` = wait forever)."""
        deadline = None if timeout_s is None else monotonic() + timeout_s
        with self._cond:
            self._draining = True
            self._cond.notify_all()
            while self._inflight > 0:
                remaining = (
                    None if deadline is None else deadline - monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return False
                self._cond.wait(remaining)
            return True

    def snapshot(self) -> Dict[str, object]:
        """Counters for the ``stats`` wire op and ``tix serve`` logs."""
        with self._cond:
            return {
                "max_inflight": self.max_inflight,
                "inflight": self._inflight,
                "waiting": self._waiting,
                "draining": self._draining,
                "admitted": self.admitted,
                "rejected_overload": self.rejected_overload,
                "rejected_shutdown": self.rejected_shutdown,
                "degraded": self.degraded,
                "under_pressure": self._under_pressure_locked(),
            }


class StoreGate:
    """Readers-writer gate over one store (module docstring).

    Readers run concurrently; a writer waits for readers to leave and
    excludes everything while it mutates.  Waiting writers block *new*
    readers (no writer starvation).  After the mutation the writer
    touches the store's index, structure index and statistics catalog:
    the maintained ones are already current, and whatever the mutation
    dropped is built here, once — never raced among reader threads.
    """

    def __init__(self, store: "XMLStore") -> None:
        self.store = store
        self._cond = threading.Condition()
        self._readers = 0
        self._writing = False
        self._writers_waiting = 0

    @contextmanager
    def read(self) -> Iterator[int]:
        """Enter as a reader; yields the pinned ``store.generation``."""
        with self._cond:
            while self._writing or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
            generation = self.store.generation
        try:
            yield generation
        finally:
            with self._cond:
                self._readers -= 1
                self._cond.notify_all()

    @contextmanager
    def write(self) -> Iterator["XMLStore"]:
        """Enter as the exclusive writer; yields the store to mutate.
        On exit any index/structure/stats the mutation dropped is built
        before a reader re-enters."""
        with self._cond:
            self._writers_waiting += 1
            while self._writing or self._readers > 0:
                self._cond.wait()
            self._writers_waiting -= 1
            self._writing = True
        try:
            yield self.store
        finally:
            try:
                # Readers must never trigger (and race) a build.
                self.store.index
                self.store.structure
                self.store.stats
            finally:
                with self._cond:
                    self._writing = False
                    self._cond.notify_all()
