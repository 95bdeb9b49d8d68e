"""Shared configuration for the concurrency rules.

One tuple answers "which modules run under more than one thread?" for
every concurrency rule — ``lock-discipline``, ``lock-order``,
``shared-state-race``, and ``blocking-under-lock`` — so widening the
concurrent surface (say, when the sharded scatter-gather executor
lands) is a one-line change here instead of four drifting copies.
"""

from __future__ import annotations

from typing import Tuple

__all__ = ["CONCURRENT_MODULE_PREFIXES", "is_concurrent_module"]

#: Posix-relpath prefixes of modules that execute under multiple
#: threads: the cache hierarchy shared by the batch executor's pool
#: (``repro/perf``), the threaded query server with its admission
#: controller and pooled client (``repro/server``), and the metrics /
#: tracing / audit-log observability stack (``repro/obs``).
CONCURRENT_MODULE_PREFIXES: Tuple[str, ...] = (
    "repro/perf/",
    "repro/server/",
    "repro/obs/",
)


def is_concurrent_module(relpath: str) -> bool:
    """Is ``relpath`` (posix, relative to the lint root) in scope for
    the concurrency rules?"""
    return relpath.startswith(CONCURRENT_MODULE_PREFIXES)
