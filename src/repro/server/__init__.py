"""Query-serving layer: wire protocol, admission control, client.

``repro.server`` turns the engine into a *database server*: a
length-prefixed JSON-frame protocol (:mod:`repro.server.protocol`), a
threaded socket server that runs every request through the resilience
layer's :class:`~repro.resilience.guard.QueryGuard`
(:mod:`repro.server.server`), a semaphore-bounded admission controller
with a queue → reject → degrade → drain overload ladder
(:mod:`repro.server.admission`), and a single-threaded client that
owns one connection and reconnects under one jittered retry policy
(:mod:`repro.server.client`).  :mod:`repro.server.loadtest` drives a
fleet of clients, one per worker, against a live server.

See ``docs/robustness.md`` ("Serving and admission control") for the
frame formats, the error taxonomy, and the overload ladder.
"""

from repro.server.admission import AdmissionController, StoreGate
from repro.server.client import Connection, PooledClient
from repro.server.loadtest import LoadtestReport, run_loadtest
from repro.server.protocol import (
    PROTOCOL_VERSION,
    error_code,
    exception_for,
    read_frame,
    write_frame,
)
from repro.server.server import QueryServer

__all__ = [
    "AdmissionController", "StoreGate",
    "Connection", "PooledClient",
    "LoadtestReport", "run_loadtest",
    "PROTOCOL_VERSION", "error_code", "exception_for",
    "read_frame", "write_frame",
    "QueryServer",
]
