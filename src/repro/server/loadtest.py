"""Load-test a live query server with a concurrent client fleet.

``run_loadtest`` mirrors :func:`repro.perf.batch.execute_batch` on the
other side of the wire: a ``ThreadPoolExecutor`` fleet where each
worker owns its own single-connection
:class:`~repro.server.client.PooledClient` and sends requests
round-robin over the query set.  Every outcome is
categorized — complete, truncated/degraded partial, typed rejection
(``OVERLOADED`` / ``SHUTTING_DOWN``), typed engine error, or transport
error — so a run against an overloaded server shows the overload
ladder working (rejections and partials, zero transport errors, no
hangs) instead of a pile of stack traces.

Client jitter RNGs are seeded per worker from ``seed``, so a loadtest
is as reproducible as the server's timing allows.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import (
    OverloadedError,
    ShuttingDownError,
    TIXError,
)
from repro.server.client import PooledClient
from repro.server.protocol import error_code

__all__ = ["LoadtestOutcome", "LoadtestReport", "run_loadtest"]


@dataclass
class LoadtestOutcome:
    """One request's fate."""

    index: int
    source: str
    category: str = ""  # ok | truncated | rejected | error | transport
    code: str = ""      # wire error code when category is rejected/error
    n_results: int = 0
    degraded: bool = False
    elapsed_ms: float = 0.0
    trace_id: str = ""  # server-side trace id (echoed on success)


@dataclass
class LoadtestReport:
    """Aggregated fleet outcomes."""

    outcomes: List[LoadtestOutcome] = field(default_factory=list)
    wall_ms: float = 0.0
    clients: int = 0

    @property
    def sent(self) -> int:
        return len(self.outcomes)

    def count(self, category: str) -> int:
        return sum(1 for o in self.outcomes if o.category == category)

    @property
    def n_ok(self) -> int:
        return self.count("ok") + self.count("truncated")

    @property
    def n_rejected(self) -> int:
        return self.count("rejected")

    @property
    def n_transport_errors(self) -> int:
        return self.count("transport")

    @property
    def n_degraded(self) -> int:
        return sum(1 for o in self.outcomes if o.degraded)

    def by_code(self) -> Dict[str, int]:
        codes: Dict[str, int] = {}
        for o in self.outcomes:
            if o.code:
                codes[o.code] = codes.get(o.code, 0) + 1
        return codes

    def latency_ms(self, q: float) -> float:
        """The ``q`` latency quantile over all outcomes (0 when empty)."""
        lats = sorted(o.elapsed_ms for o in self.outcomes)
        if not lats:
            return 0.0
        idx = min(len(lats) - 1, int(q * len(lats)))
        return lats[idx]

    def slowest_traces(self, limit: int = 5) -> List[Dict[str, Any]]:
        """The slowest traced outcomes — the ids to look up in the
        server's retained traces (``tix trace --server``)."""
        traced = [o for o in self.outcomes if o.trace_id]
        traced.sort(key=lambda o: o.elapsed_ms, reverse=True)
        return [
            {
                "trace_id": o.trace_id,
                "elapsed_ms": round(o.elapsed_ms, 3),
                "category": o.category,
            }
            for o in traced[:limit]
        ]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "sent": self.sent,
            "ok": self.count("ok"),
            "truncated": self.count("truncated"),
            "rejected": self.n_rejected,
            "errors": self.count("error"),
            "transport_errors": self.n_transport_errors,
            "degraded": self.n_degraded,
            "by_code": self.by_code(),
            "clients": self.clients,
            "wall_ms": round(self.wall_ms, 3),
            "latency_ms": {
                "p50": round(self.latency_ms(0.50), 3),
                "p95": round(self.latency_ms(0.95), 3),
                "p99": round(self.latency_ms(0.99), 3),
            },
            "slowest_traces": self.slowest_traces(),
        }

    def render(self) -> str:
        d = self.to_dict()
        lines = [
            f"loadtest: {d['sent']} requests over {d['clients']} clients "
            f"in {d['wall_ms']:.1f} ms",
            f"  ok: {d['ok']}  truncated: {d['truncated']}  "
            f"rejected: {d['rejected']}  errors: {d['errors']}  "
            f"transport: {d['transport_errors']}  "
            f"degraded: {d['degraded']}",
            f"  latency p50/p95/p99: "
            f"{d['latency_ms']['p50']:.1f}/"
            f"{d['latency_ms']['p95']:.1f}/"
            f"{d['latency_ms']['p99']:.1f} ms",
        ]
        if d["by_code"]:
            codes = ", ".join(
                f"{code}={n}" for code, n in sorted(d["by_code"].items())
            )
            lines.append(f"  codes: {codes}")
        slow = d["slowest_traces"]
        if slow:
            lines.append("  slowest traces: " + ", ".join(
                f"{t['trace_id']} ({t['elapsed_ms']:.1f} ms)"
                for t in slow[:3]
            ))
        return "\n".join(lines)


def _run_one(client: PooledClient, outcome: LoadtestOutcome, *,
             timeout_ms: Optional[float], max_rows: Optional[int],
             degrade: bool) -> LoadtestOutcome:
    t0 = perf_counter()
    try:
        res = client.query(
            outcome.source, timeout_ms=timeout_ms, max_rows=max_rows,
            degrade=degrade,
        )
        outcome.category = "truncated" if res.truncated else "ok"
        outcome.n_results = res.n_results
        outcome.degraded = res.degraded
        outcome.trace_id = res.trace_id
    except (OverloadedError, ShuttingDownError) as exc:
        outcome.category = "rejected"
        outcome.code = error_code(exc)
    except TIXError as exc:
        outcome.category = "error"
        outcome.code = error_code(exc)
    except OSError:
        outcome.category = "transport"
        outcome.code = "TRANSPORT"
    outcome.elapsed_ms = (perf_counter() - t0) * 1000.0
    return outcome


def run_loadtest(host: str, port: int, sources: Sequence[str], *,
                 clients: int = 8, total: int = 64,
                 timeout_ms: Optional[float] = None,
                 max_rows: Optional[int] = None,
                 degrade: bool = True,
                 call_timeout_s: float = 30.0,
                 seed: int = 0) -> LoadtestReport:
    """Send ``total`` requests (round-robin over ``sources``) from
    ``clients`` concurrent workers, each with its own client.

    Each worker reuses its client's one connection across requests, so
    the server sees ``clients`` long-lived connections with pipelined
    request pressure — the shape admission control exists for.
    """
    sources = list(sources)
    if not sources:
        raise ValueError("run_loadtest needs at least one query")
    clients = max(1, clients)
    outcomes = [
        LoadtestOutcome(index=i, source=sources[i % len(sources)])
        for i in range(total)
    ]
    fleet = [
        PooledClient(host, port, call_timeout_s=call_timeout_s,
                     seed=seed + worker)
        for worker in range(clients)
    ]
    def worker_loop(worker: int) -> None:
        # Strided slice: worker w owns outcomes w, w+clients, … and
        # drives them sequentially over its own client, so the
        # server sees exactly `clients` concurrent request streams.
        for o in outcomes[worker::clients]:
            _run_one(fleet[worker], o, timeout_ms=timeout_ms,
                     max_rows=max_rows, degrade=degrade)

    t0 = perf_counter()
    try:
        with ThreadPoolExecutor(max_workers=clients) as pool:
            futures = [
                pool.submit(worker_loop, w) for w in range(clients)
            ]
            for fut in futures:
                fut.result()
    finally:
        for client in fleet:
            client.close()
    return LoadtestReport(
        outcomes=outcomes,
        wall_ms=(perf_counter() - t0) * 1000.0,
        clients=clients,
    )
