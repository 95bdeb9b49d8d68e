"""Deterministic, seed-driven fault injection + retry-with-backoff.

Production code in the store/index/persistence paths declares *named
fault points* by calling ``faultinject.INJECTOR.fire("persist.read_doc",
path=path)`` at the spot where a real deployment could fail (disk read,
rename, decode).  The default :data:`INJECTOR` is a :class:`NullInjector`
whose ``fire`` is a no-op, so the hooks cost one method call on cold
paths and nothing is ever injected outside tests.

The chaos suite installs a :class:`FaultInjector` built from
:class:`FaultSpec`\\ s.  Faults trigger either *deterministically* (the
``at_calls`` ordinals of a point, 1-based) or *probabilistically* from a
seeded :class:`random.Random` — same seed, same spec, same call sequence
⇒ same faults, every run.  ``times`` caps how often a spec fires, which
models transient errors (fail once, succeed on retry).

The point names in play are declared in :data:`FAULT_POINTS` (see also
``docs/robustness.md``); the ``fault-point-drift`` lint rule keeps that
registry and the ``fire()`` sites in agreement, both ways.

:func:`retry` is the matching transient-I/O helper: call, catch
retryable errors, back off (deterministic exponential, or seedable
decorrelated jitter for client fleets), re-raise after ``attempts``.
Retries and give-ups are recorded as ``resilience.retries`` /
``resilience.retry_giveups`` counters when a collector is installed.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import sleep as _real_sleep
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro import obs as _obs

__all__ = [
    "FAULT_POINTS", "FaultSpec", "NullInjector", "FaultInjector",
    "INJECTOR", "install_faults", "uninstall_faults", "injecting",
    "retry",
]

#: The declared fault-point registry: name -> the operation the point
#: precedes.  Must stay a literal dict — the ``fault-point-drift`` lint
#: rule reads it with ``ast.literal_eval`` and checks every
#: ``INJECTOR.fire(...)`` site against it (and that every entry here is
#: still reachable), so a point cannot be added, renamed, or dropped
#: without updating this table.
FAULT_POINTS: Dict[str, str] = {
    "persist.read_manifest": "reading store.json",
    "persist.write_manifest": "atomically writing store.json",
    "persist.read_doc": "reading one document file",
    "persist.write_doc": "atomically writing one document file",
    "persist.replace": "the tmp-to-final os.replace",
    "index.build": "building or updating the inverted index",
    "store.parse_doc": "parsing one loaded document",
    "server.accept": "accepting one client connection",
    "server.frame_read": "reading one wire-protocol frame",
    "server.frame_write": "writing one wire-protocol frame",
}


@dataclass
class FaultSpec:
    """One fault rule: *where* it can fire and *when* it does.

    ``make_error`` builds the exception to raise (default: an ``OSError``
    naming the point and any context the fault site passed).  ``at_calls``
    fires on exact 1-based call ordinals of the point; ``probability``
    fires from the injector's seeded RNG; ``times`` caps total fires
    (``None`` = unlimited) — ``times=1`` models a transient error that a
    retry survives.
    """

    point: str
    probability: float = 0.0
    at_calls: Tuple[int, ...] = ()
    times: Optional[int] = None
    make_error: Optional[Callable[..., BaseException]] = None
    fired: int = field(default=0, compare=False)

    def build_error(self, **ctx: object) -> BaseException:
        if self.make_error is not None:
            return self.make_error(**ctx)
        detail = ", ".join(f"{k}={v!r}" for k, v in sorted(ctx.items()))
        return OSError(
            f"injected fault at {self.point}"
            + (f" ({detail})" if detail else "")
        )


class NullInjector:
    """The default injector: never fires."""

    active = False

    def fire(self, point: str, **ctx: object) -> None:
        pass


class FaultInjector(NullInjector):
    """Seeded fault oracle for a set of :class:`FaultSpec` rules."""

    active = True

    def __init__(self, specs: Sequence[FaultSpec] = (),
                 seed: int = 0) -> None:
        self.specs: List[FaultSpec] = list(specs)
        self.seed = seed
        self.rng = random.Random(seed)
        #: per-point call ordinals (1-based; includes non-firing calls)
        self.calls: Dict[str, int] = {}
        #: per-point count of faults actually raised
        self.fired: Dict[str, int] = {}
        self._by_point: Dict[str, List[FaultSpec]] = {}
        for spec in self.specs:
            self._by_point.setdefault(spec.point, []).append(spec)

    def add(self, spec: FaultSpec) -> "FaultInjector":
        self.specs.append(spec)
        self._by_point.setdefault(spec.point, []).append(spec)
        return self

    def fire(self, point: str, **ctx: object) -> None:
        """Raise a fault if any spec for ``point`` triggers on this call."""
        n = self.calls.get(point, 0) + 1
        self.calls[point] = n
        for spec in self._by_point.get(point, ()):
            if spec.times is not None and spec.fired >= spec.times:
                continue
            hit = n in spec.at_calls
            if not hit and spec.probability > 0.0:
                # One RNG draw per (armed spec, call): the draw sequence
                # is a pure function of the seed and the call sequence,
                # so identical scenarios replay identically.
                hit = self.rng.random() < spec.probability
            if hit:
                spec.fired += 1
                self.fired[point] = self.fired.get(point, 0) + 1
                rec = _obs.RECORDER
                if rec.enabled:
                    rec.count(f"faults.fired.{point}")
                raise spec.build_error(point=point, **ctx)


#: The process-wide injector.  Read via module attribute at call time.
INJECTOR: NullInjector = NullInjector()

_stack: List[NullInjector] = []


def install_faults(injector: NullInjector) -> None:
    """Install ``injector``; installs nest like the obs recorder."""
    global INJECTOR
    _stack.append(INJECTOR)
    INJECTOR = injector


def uninstall_faults() -> None:
    global INJECTOR
    if not _stack:
        raise RuntimeError(
            "uninstall_faults() without a matching install_faults()"
        )
    INJECTOR = _stack.pop()


@contextmanager
def injecting(specs: Sequence[FaultSpec] = (),
              seed: int = 0) -> Iterator[FaultInjector]:
    """Install a fresh :class:`FaultInjector` for the duration of the
    block."""
    injector = FaultInjector(specs, seed=seed)
    install_faults(injector)
    try:
        yield injector
    finally:
        uninstall_faults()


def retry(
    fn: Callable[[], object],
    attempts: int = 3,
    base_delay: float = 0.005,
    retryable: Tuple[type, ...] = (OSError,),
    non_retryable: Tuple[type, ...] = (FileNotFoundError,),
    sleep: Callable[[float], None] = _real_sleep,
    jitter: bool = False,
    max_delay: Optional[float] = None,
    rng: Optional[random.Random] = None,
) -> object:
    """Call ``fn``, retrying transient failures with backoff.

    A raised error is retried when it is an instance of ``retryable`` but
    not of ``non_retryable`` (a missing file is not transient).  After
    ``attempts`` total calls the last error is re-raised.  ``sleep`` is
    injectable so tests assert the backoff schedule without waiting.

    Two backoff schedules:

    - ``jitter=False`` (default) — deterministic exponential,
      ``base_delay * 2**k`` for retry ``k``.  Right for a single
      process retrying local I/O, where reproducibility matters more
      than herd behaviour.
    - ``jitter=True`` — *decorrelated jitter*: each delay is drawn
      uniformly from ``[base_delay, 3 * previous_delay]``.  Right for
      fleets of clients retrying against one recovering server —
      deterministic exponential backoff keeps a synchronized herd
      synchronized (every client sleeps the same schedule and stampedes
      together), while decorrelated draws spread the re-arrival times.
      Pass a seeded ``rng`` (:class:`random.Random`) to make the
      schedule reproducible for the chaos suite; without one a private
      unseeded RNG is used.

    ``max_delay`` caps a single sleep under either schedule.
    """
    if attempts < 1:
        raise ValueError("attempts must be >= 1")
    if jitter and rng is None:
        rng = random.Random()
    prev_delay = base_delay
    for attempt in range(attempts):
        try:
            return fn()
        except retryable as exc:
            if isinstance(exc, non_retryable) or attempt == attempts - 1:
                rec = _obs.RECORDER
                if rec.enabled and not isinstance(exc, non_retryable):
                    rec.count("resilience.retry_giveups")
                raise
            rec = _obs.RECORDER
            if rec.enabled:
                rec.count("resilience.retries")
            if jitter:
                assert rng is not None
                delay = rng.uniform(base_delay, prev_delay * 3.0)
            else:
                delay = base_delay * (2 ** attempt)
            if max_delay is not None:
                delay = min(delay, max_delay)
            prev_delay = delay
            sleep(delay)
    raise AssertionError("unreachable")  # pragma: no cover
