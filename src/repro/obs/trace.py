"""Query tracer: nested spans with monotonic timings.

A :class:`Span` covers one timed phase (``parse``, ``compile``,
``open:termjoin-scan`` …).  Spans nest naturally: the tracer keeps a
stack, so a span begun while another is active becomes its child — the
engine's recursive ``open()``/``close()`` therefore produces a span tree
mirroring the plan tree with zero bookkeeping at the call sites.

The stack is **per-thread** (``threading.local``): the batch executor
drives one collector from many workers, and a single shared stack would
interleave spans across threads — child spans adopted by a parent on
another thread, and out-of-order closes corrupting both timelines.
Each span is tagged with the thread id that opened it (:attr:`Span.tid`)
so a span tree always nests within one thread; the shared root list and
the span/drop accounting are lock-protected.

Per-tuple ``next()`` calls are deliberately *not* traced as spans (a
million-row scan would produce a million spans); their cost is
aggregated per operator in :class:`repro.engine.base.OpStats` and
attached to the operator's ``close`` span as attributes.

Exports: :meth:`Span.to_dict` / :meth:`Tracer.to_dict` (nested JSON)
is the serialized form — what crosses the wire and lands in files —
and both views are rendered from it, once each:
:func:`chrome_trace_events` (the Chrome/Perfetto ``traceEvents``
format — load it at ``chrome://tracing`` or https://ui.perfetto.dev;
each thread renders as its own timeline row via the ``tid`` field) and
:func:`render_span_tree` (indented text with per-span self time, for
``tix trace`` and ``tix query --analyze``).  The exports are
**snapshot-safe**: a span still open when the export runs (an
in-flight query) renders as a well-formed partial span whose duration
extends to the snapshot instant and whose record is flagged ``open`` —
never a zero-duration event, never an exception.

:meth:`Tracer.detach` removes a finished root span (and its subtree)
from the tracer's accounting — the distributed-tracing layer hands
each request's span tree over to the trace store and detaches it, so
a long-running server never exhausts ``max_spans``.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

__all__ = ["Span", "Tracer", "chrome_trace_events", "render_span_tree"]


class Span:
    """One timed phase; children are spans begun while it was active
    on the same thread (``tid`` records which)."""

    __slots__ = ("name", "start_ns", "end_ns", "attrs", "children", "tid")

    def __init__(self, name: str, start_ns: int,
                 **attrs: object) -> None:
        self.name = name
        self.start_ns = start_ns
        self.end_ns: Optional[int] = None
        self.attrs: Dict[str, object] = dict(attrs)
        self.children: List["Span"] = []
        self.tid: int = 0

    @property
    def open(self) -> bool:
        """Whether the span has not been closed yet."""
        return self.end_ns is None

    @property
    def duration_ns(self) -> int:
        """Span duration (0 while still open; see
        :meth:`duration_ns_at` for snapshot-consistent exports)."""
        if self.end_ns is None:
            return 0
        return self.end_ns - self.start_ns

    def duration_ns_at(self, now_ns: Optional[int] = None) -> int:
        """Span duration as of ``now_ns``: a still-open span extends to
        the snapshot instant instead of reading as zero-length.  With
        ``now_ns=None`` an open span is clocked at call time (use one
        shared ``now_ns`` to export a consistent tree)."""
        end = self.end_ns
        if end is None:
            end = time.perf_counter_ns() if now_ns is None else now_ns
        return max(0, end - self.start_ns)

    @property
    def duration_ms(self) -> float:
        return self.duration_ns / 1e6

    def to_dict(self, now_ns: Optional[int] = None) -> Dict[str, object]:
        """Nested JSON form.  Open spans (an in-flight query being
        snapshotted) report their duration up to ``now_ns`` (or call
        time) and carry ``"open": true``."""
        duration_ns = self.duration_ns_at(now_ns)
        d: Dict[str, object] = {
            "name": self.name,
            "start_ns": self.start_ns,
            "duration_ns": duration_ns,
            "duration_ms": duration_ns / 1e6,
            "tid": self.tid,
        }
        if self.end_ns is None:
            d["open"] = True
        if self.attrs:
            d["attrs"] = dict(self.attrs)
        if self.children:
            d["children"] = [c.to_dict(now_ns) for c in self.children]
        return d

    def n_spans(self) -> int:
        """Size of this subtree (the span itself plus descendants)."""
        return 1 + sum(c.n_spans() for c in self.children)


class _ThreadStack(threading.local):
    """Per-thread open-span stack.  ``threading.local`` re-runs
    ``__init__`` in every thread that touches it, so each worker starts
    with an empty stack."""

    def __init__(self) -> None:
        self.stack: List[Span] = []


class Tracer:
    """Collects a forest of nested spans, one subtree per thread.

    ``max_spans`` bounds memory: once the budget is exhausted new spans
    are counted in :attr:`dropped` but not stored (timing of already
    open spans still completes correctly).  Safe for concurrent
    ``begin``/``end`` from many threads — the open-span stack is
    thread-local, the shared root list and counters take a lock.
    """

    def __init__(self, max_spans: int = 100_000) -> None:
        self.max_spans = max_spans
        self.roots: List[Span] = []
        self.dropped = 0
        self._local = _ThreadStack()
        self._n_spans = 0
        self._lock = threading.Lock()

    # -- explicit begin/end (hot-path friendly: no generator frames) ----

    def begin(self, name: str, **attrs: object) -> Optional[Span]:
        """Open a span; returns ``None`` when over the span budget."""
        with self._lock:
            if self._n_spans >= self.max_spans:
                self.dropped += 1
                return None
            self._n_spans += 1
        span = Span(name, time.perf_counter_ns(), **attrs)
        span.tid = threading.get_ident()
        stack = self._local.stack
        if stack:
            stack[-1].children.append(span)
        else:
            with self._lock:
                self.roots.append(span)
        stack.append(span)
        return span

    def end(self, span: Optional[Span]) -> None:
        """Close ``span`` (a no-op for the ``None`` over-budget token).

        Spans must close innermost-first on their own thread; closing
        out of order closes the intervening spans too (so an exception
        that skips ``end`` calls cannot corrupt the stack).
        """
        if span is None:
            return
        now = time.perf_counter_ns()
        stack = self._local.stack
        while stack:
            top = stack.pop()
            top.end_ns = now
            if top is span:
                return
        raise ValueError(
            f"span {span.name!r} is not open on this thread"
        )

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Optional[Span]]:
        """Context-manager form of :meth:`begin`/:meth:`end`."""
        s = self.begin(name, **attrs)
        try:
            yield s
        finally:
            self.end(s)

    # -- export ----------------------------------------------------------

    @property
    def n_spans(self) -> int:
        return self._n_spans

    def _root_snapshot(self) -> List[Span]:
        with self._lock:
            return list(self.roots)

    def detach(self, span: Optional[Span]) -> bool:
        """Remove a *root* span (and its subtree) from the tracer's
        root list and span accounting.

        The distributed-tracing layer calls this after handing a
        finished request tree to the trace store: the store owns the
        spans from then on, and the tracer's ``max_spans`` budget is
        freed for the next requests instead of filling up over a
        server's lifetime.  Returns ``False`` (no-op) for ``None``
        (the over-budget token) or a span that is not a current root.
        """
        if span is None:
            return False
        with self._lock:
            try:
                self.roots.remove(span)
            except ValueError:
                return False
            self._n_spans = max(0, self._n_spans - span.n_spans())
        return True

    def to_dict(self) -> Dict[str, object]:
        now_ns = time.perf_counter_ns()
        return {
            "spans": [s.to_dict(now_ns) for s in self._root_snapshot()],
            "n_spans": self._n_spans,
            "dropped": self.dropped,
        }

    def to_chrome_trace(self) -> Dict[str, object]:
        """The collected forest as Chrome ``traceEvents`` JSON (see
        :func:`chrome_trace_events`)."""
        return chrome_trace_events(self.to_dict()["spans"])


def chrome_trace_events(spans: List[Dict[str, Any]]) -> Dict[str, object]:
    """Render a forest of *serialized* spans (:meth:`Span.to_dict`
    form) as Chrome ``traceEvents`` JSON: one complete (``"ph": "X"``)
    event per span, timestamps in microseconds relative to the first
    span.  Thread idents are compacted to small stable ``tid`` values
    (ordered by each thread's first root) so every thread gets its own
    readable timeline row.  Spans that were open at serialization time
    render as partial events (``args["open"] = true``), never as
    zero-duration ones."""
    events: List[Dict[str, object]] = []
    if not spans:
        return {"traceEvents": events}
    t0 = min(int(d["start_ns"]) for d in spans)
    tids: Dict[int, int] = {}
    for root in sorted(spans, key=lambda d: int(d["start_ns"])):
        tids.setdefault(int(root["tid"]), len(tids))

    def emit(d: Dict[str, Any]) -> None:
        args = dict(d.get("attrs") or {})
        if d.get("open"):
            args["open"] = True
        events.append({
            "name": d["name"],
            "ph": "X",
            "ts": (int(d["start_ns"]) - t0) / 1e3,
            "dur": int(d["duration_ns"]) / 1e3,
            "pid": 0,
            "tid": tids.setdefault(int(d["tid"]), len(tids)),
            "args": args,
        })
        for child in d.get("children") or []:
            emit(child)

    for root in spans:
        emit(root)
    return {"traceEvents": events}


def render_span_tree(span: Dict[str, Any], depth: int = 0,
                     max_depth: Optional[int] = None) -> List[str]:
    """Indented text lines for one *serialized* span tree: per span
    its duration, its **self time** (duration minus the part its
    children cover — where the time was actually spent, telemetry
    included) and its attributes.  Children are rendered while
    ``depth < max_depth`` (``None`` = the whole tree)."""
    dur = float(span["duration_ms"])
    children = span.get("children") or []
    self_ms = max(0.0, dur - sum(float(c["duration_ms"]) for c in children))
    attrs = span.get("attrs") or {}
    extra = " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
    mark = " (open)" if span.get("open") else ""
    pad = "  " * depth
    width = max(1, 32 - len(pad))
    lines = [f"  {pad}{span['name']:<{width}} {dur:>9.3f} ms"
             f"  self {self_ms:>9.3f} ms{mark}"
             + (f"  {extra}" if extra else "")]
    if max_depth is None or depth < max_depth:
        for child in children:
            lines += render_span_tree(child, depth + 1, max_depth)
    return lines
