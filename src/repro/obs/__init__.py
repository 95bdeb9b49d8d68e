"""Engine-wide observability: metrics registry + query tracer.

Design contract — **zero overhead unless collecting**.  The module-level
:data:`RECORDER` is a :class:`NullRecorder` by default; instrumented code
follows one of two patterns:

- hot paths (``Operator.next``, posting-list fetches) guard on
  ``obs.RECORDER.enabled`` — a single attribute test — and do *no*
  timing or metric work when it is ``False``;
- cold paths (index builds, query compilation) call
  ``obs.RECORDER.span(...)`` / ``.count(...)`` unconditionally; the null
  recorder's methods are argument-discarding no-ops.

Installing a :class:`Collector` (usually via the :func:`collecting`
context manager) flips ``enabled`` and routes everything into a fresh
:class:`~repro.obs.metrics.MetricsRegistry` and
:class:`~repro.obs.trace.Tracer`::

    from repro import obs
    from repro.resilience import run_query_guarded

    with obs.collecting() as col:
        res = run_query_guarded(store, source)
    print(col.metrics.render())
    json.dump(col.tracer.to_chrome_trace(), open("trace.json", "w"))

Always access the recorder as ``obs.RECORDER`` (module attribute), never
``from repro.obs import RECORDER`` — the latter snapshots the null
recorder and misses a later install.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import ContextManager, Iterator, List, Optional, Union

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.trace import Span, Tracer

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "Span", "Tracer",
    "Collector", "NullRecorder", "RECORDER",
    "install", "uninstall", "collecting", "recorder",
]


class _NullSpan:
    """Reusable no-op context manager returned by the null recorder."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """The default recorder: every method is a no-op, ``enabled`` is
    ``False`` so hot paths skip instrumentation entirely."""

    enabled = False

    def count(self, name: str, n: Union[int, float] = 1) -> None:
        pass

    def observe(self, name: str, value: Union[int, float],
                exemplar: Optional[str] = None) -> None:
        pass

    def set_gauge(self, name: str, value: Union[int, float]) -> None:
        pass

    def span(self, name: str, **attrs: object) -> _NullSpan:
        return _NULL_SPAN

    def begin_span(self, name: str, **attrs: object) -> None:
        return None

    def end_span(self, span: object) -> None:
        pass


class Collector(NullRecorder):
    """An active recorder: a metrics registry plus a tracer."""

    enabled = True

    def __init__(self, max_spans: int = 100_000) -> None:
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(max_spans=max_spans)

    def count(self, name: str, n: Union[int, float] = 1) -> None:
        self.metrics.count(name, n)

    def observe(self, name: str, value: Union[int, float],
                exemplar: Optional[str] = None) -> None:
        self.metrics.observe(name, value, exemplar)

    def set_gauge(self, name: str, value: Union[int, float]) -> None:
        self.metrics.set_gauge(name, value)

    def span(self, name: str,
             **attrs: object) -> ContextManager[Optional[Span]]:
        return self.tracer.span(name, **attrs)

    def begin_span(self, name: str, **attrs: object) -> Optional[Span]:
        return self.tracer.begin(name, **attrs)

    def end_span(self, span: Optional[Span]) -> None:
        self.tracer.end(span)


#: The process-wide recorder.  Read via ``obs.RECORDER`` at call time.
RECORDER: NullRecorder = NullRecorder()

_stack: List[NullRecorder] = []


def recorder() -> NullRecorder:
    """The currently installed recorder (the null recorder by default)."""
    return RECORDER


def install(collector: NullRecorder) -> None:
    """Install ``collector`` as the active recorder.  Installs nest:
    :func:`uninstall` restores the previously active recorder."""
    global RECORDER
    _stack.append(RECORDER)
    RECORDER = collector


def uninstall() -> None:
    """Restore the recorder active before the last :func:`install`."""
    global RECORDER
    if not _stack:
        raise RuntimeError("uninstall() without a matching install()")
    RECORDER = _stack.pop()


@contextmanager
def collecting(max_spans: int = 100_000) -> Iterator[Collector]:
    """Install a fresh :class:`Collector` for the duration of the block."""
    col = Collector(max_spans=max_spans)
    install(col)
    try:
        yield col
    finally:
        uninstall()
