"""Rule ``blocking-under-lock``: no blocking operation while holding
a lock.

A lock held across a blocking call turns one slow peer into a
stalled process: every thread that needs the lock queues behind a
socket read, a ``time.sleep``, or an unbounded ``Queue.get``.  The
interprocedural walk (:mod:`repro.analysis.concurrency.lockgraph`)
records each blocking operation executed inside a held-lock region —
including operations reached *through* calls, so hiding the sleep in
a helper does not hide the finding.  The curated blocking calls:

- ``time.sleep`` (and a bare imported ``sleep``);
- socket ``recv`` / ``recv_into`` / ``sendall`` / ``accept`` (always)
  and ``send`` / ``connect`` / ``makefile`` on socket-typed receivers;
- ``Condition.wait`` / ``wait_for`` while holding *another* lock
  (waiting on the only held condition releases it and is fine), and
  ``Event.wait``;
- ``Queue.get`` / ``Queue.put`` without ``block=False``;
- ``Thread.join``;
- ``open()`` and file-object ``read``/``write``/``flush``.

Warning severity: some of these are deliberate (an event sink
serializing writes *under* its lock), and
``# tix-lint: disable=blocking-under-lock`` on the call line is the
auditable way to say so.
"""

from __future__ import annotations

from typing import Iterator, Set, Tuple

from repro.analysis.concurrency.lockgraph import lock_graph
from repro.analysis.core import (
    WARNING,
    Finding,
    Project,
    Rule,
    register,
)


class _Anchor:
    """Minimal lineno/col carrier for :meth:`Rule.finding`."""

    def __init__(self, line: int) -> None:
        self.lineno = line
        self.col_offset = 0


@register
class BlockingUnderLockRule(Rule):
    name = "blocking-under-lock"
    severity = WARNING
    description = (
        "no blocking call (sleep, socket I/O, Condition.wait, "
        "blocking Queue ops, file I/O) inside a held-lock region"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        graph = lock_graph(project)
        seen: Set[Tuple[str, int, str, Tuple[str, ...]]] = set()
        for call in graph.blocking:
            key = (call.path, call.line, call.desc, call.held)
            if key in seen:
                continue  # same site reached through several paths
            seen.add(key)
            module = project.module_by_relpath(call.path)
            if module is None:  # pragma: no cover - defensive
                continue
            held = ", ".join(sorted(set(call.held)))
            yield self.finding(
                module, _Anchor(call.line),
                f"blocking {call.desc} while holding {held} — every "
                f"thread needing the lock stalls behind this call; "
                f"move it outside the critical section",
                witness=call.witness,
            )
