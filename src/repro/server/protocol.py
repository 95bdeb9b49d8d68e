"""The wire protocol: length-prefixed JSON frames + the error taxonomy.

One frame is a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON encoding a single object.  Both directions use the
same framing; a connection carries a sequence of request/response
pairs, answered in order.

**Requests** carry ``{"v": 1, "id": <caller-chosen>, "op": <name>}``
plus per-op fields:

- ``query`` — ``q`` (source text), optional ``timeout_ms``,
  ``max_rows``, ``degrade`` (default true), ``with_scores``;
- ``ping`` — liveness/health check, answered without admission;
- ``stats`` — the server's admission/inflight counters, plus
  ``metrics`` (the installed collector's registry snapshot, ``{}``
  without one) and ``uptime_s``;
- ``traces`` — optional ``trace_id`` or ``limit``: the trace store's
  listing, or one trace's record and span tree.

**Responses** echo ``v`` and ``id``.  Success is ``{"ok": true, ...}``
(for ``query``: ``rows`` as ``[{"score": …, "xml": …}, …]``, ``n``,
``truncated``, ``reason``, ``degraded``, ``generation``).  Failure is a
typed envelope::

    {"v": 1, "id": …, "ok": false,
     "error": {"code": "TIMEOUT", "type": "QueryTimeoutError",
               "message": "query exceeded its 50 ms deadline"}}

``code`` is the stable wire-level taxonomy (:data:`ERROR_CODES`) built
on the existing exception hierarchy — guard trips, ``PlanError``,
parse/compile errors, and the serving-layer ``OVERLOADED`` /
``SHUTTING_DOWN`` rejections all map to distinct codes, and
:func:`exception_for` maps a received envelope back to the matching
exception class so remote errors re-raise as their local types.

**Trace context** rides in an optional ``"trace"`` request field
(``{"id": …, "span": …, "attempt": …}``, see
:class:`repro.obs.tracestore.TraceContext`) and successful/failed
responses echo the ``trace_id`` they were served under.  The field is
deliberately *not* a protocol-version bump: an old server ignores the
unknown key, and a frame without it makes a new server mint a root
trace locally — old clients, new clients, old servers and new servers
interoperate in every pairing.  :func:`parse_trace_context` never
raises on malformed values for the same reason.

Framing is hardened: a frame longer than ``max_bytes`` raises
:class:`~repro.errors.ProtocolError` before any allocation, a
connection closed mid-frame raises ``ProtocolError`` ("torn frame")
rather than returning garbage, and a clean close at a frame boundary
reads as ``None``.  The ``server.frame_read`` / ``server.frame_write``
fault points let the chaos suite inject I/O failures at exactly these
spots.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, Dict, Optional, Type

from repro.errors import (
    DocumentNotFoundError,
    OverloadedError,
    PatternError,
    PlanError,
    ProtocolError,
    QueryCancelledError,
    QueryCompileError,
    QuerySyntaxError,
    QueryTimeoutError,
    ResourceExhaustedError,
    ShuttingDownError,
    TIXError,
)
from repro.obs.tracestore import TraceContext
from repro.resilience import faultinject as _faults

__all__ = [
    "PROTOCOL_VERSION", "MAX_FRAME_BYTES", "ERROR_CODES", "TRACE_FIELD",
    "read_frame", "write_frame",
    "request", "ok_response", "error_response",
    "trace_fields", "parse_trace_context",
    "error_code", "exception_for", "raise_for_error",
]

#: Protocol version stamped on every frame.  A server answers any
#: request whose ``v`` is at most its own version; a larger ``v`` is a
#: ``BAD_REQUEST`` (the client is newer than the server).
PROTOCOL_VERSION = 1

#: Default per-frame size ceiling.  Large enough for any sane query or
#: result page, small enough that a hostile/corrupt length prefix
#: cannot make the peer allocate gigabytes.
MAX_FRAME_BYTES = 8 * 1024 * 1024

_HEADER = struct.Struct("!I")

#: Exception type → stable wire error code, most specific first.
#: (Mapping insertion order is the dispatch order.)
ERROR_CODES: Dict[Type[BaseException], str] = {
    QueryTimeoutError: "TIMEOUT",
    QueryCancelledError: "CANCELLED",
    ResourceExhaustedError: "RESOURCE_EXHAUSTED",
    QuerySyntaxError: "SYNTAX",
    QueryCompileError: "COMPILE",
    PlanError: "PLAN",
    PatternError: "PATTERN",
    DocumentNotFoundError: "NOT_FOUND",
    OverloadedError: "OVERLOADED",
    ShuttingDownError: "SHUTTING_DOWN",
    ProtocolError: "BAD_FRAME",
    TIXError: "ENGINE",
}

#: Wire error code → exception class raised client-side.  Codes with no
#: entry (including "INTERNAL" and future codes) fall back to TIXError.
_EXCEPTION_BY_CODE: Dict[str, Type[TIXError]] = {
    code: exc_type
    for exc_type, code in ERROR_CODES.items()
    if issubclass(exc_type, TIXError)
}


def error_code(exc: BaseException) -> str:
    """The wire code for ``exc`` ("INTERNAL" for non-engine errors)."""
    for exc_type, code in ERROR_CODES.items():
        if isinstance(exc, exc_type):
            return code
    return "INTERNAL"


def exception_for(code: str, message: str) -> TIXError:
    """Build the local exception a received error envelope stands for."""
    exc_type = _EXCEPTION_BY_CODE.get(code, TIXError)
    return exc_type(message)


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------

def _read_exact(sock: socket.socket, n: int,
                allow_eof: bool = False) -> Optional[bytes]:
    """Read exactly ``n`` bytes.  A clean close before the first byte
    returns ``None`` when ``allow_eof``; a close anywhere else is a
    torn frame."""
    chunks = []
    got = 0
    while got < n:
        chunk = sock.recv(min(65536, n - got))
        if not chunk:
            if allow_eof and got == 0:
                return None
            raise ProtocolError(
                f"torn frame: connection closed after {got} of {n} bytes"
            )
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def read_frame(sock: socket.socket,
               max_bytes: int = MAX_FRAME_BYTES) -> Optional[Dict[str, Any]]:
    """Read one frame.  Returns the decoded object, or ``None`` on a
    clean close at a frame boundary.  Raises
    :class:`~repro.errors.ProtocolError` on a torn, oversized, or
    non-JSON-object frame; ``socket.timeout`` / ``OSError`` propagate
    for the caller's transport-level handling."""
    _faults.INJECTOR.fire("server.frame_read")
    header = _read_exact(sock, _HEADER.size, allow_eof=True)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > max_bytes:
        raise ProtocolError(
            f"frame of {length} bytes exceeds the {max_bytes}-byte limit"
        )
    body = _read_exact(sock, length)
    assert body is not None
    try:
        obj = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame body is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError(
            f"frame body must be a JSON object, got {type(obj).__name__}"
        )
    return obj


def write_frame(sock: socket.socket, obj: Dict[str, Any],
                max_bytes: int = MAX_FRAME_BYTES) -> None:
    """Encode and send one frame (length prefix + JSON body)."""
    _faults.INJECTOR.fire("server.frame_write")
    data = json.dumps(obj, separators=(",", ":"), sort_keys=True)
    payload = data.encode("utf-8")
    if len(payload) > max_bytes:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds the "
            f"{max_bytes}-byte limit"
        )
    sock.sendall(_HEADER.pack(len(payload)) + payload)


# ----------------------------------------------------------------------
# Frame constructors
# ----------------------------------------------------------------------

#: Request-frame key carrying the propagated trace context.
TRACE_FIELD = "trace"


def trace_fields(context: Optional[TraceContext]) -> Dict[str, Any]:
    """The extra request fields propagating ``context`` (empty when
    tracing is off — the frame then looks exactly like an old
    client's)."""
    if context is None:
        return {}
    return {TRACE_FIELD: context.to_wire()}


def parse_trace_context(frame: Dict[str, Any]) -> Optional[TraceContext]:
    """The trace context a request frame carries, or ``None`` for old
    clients / malformed values (the server then mints a root trace
    locally).  Never raises — back-compat by construction."""
    return TraceContext.from_wire(frame.get(TRACE_FIELD))


def request(op: str, request_id: int, **fields: Any) -> Dict[str, Any]:
    """A request frame for ``op`` with caller-chosen ``request_id``."""
    frame: Dict[str, Any] = {
        "v": PROTOCOL_VERSION, "id": request_id, "op": op,
    }
    frame.update(fields)
    return frame


def ok_response(request_id: Any, **fields: Any) -> Dict[str, Any]:
    """A success response echoing ``request_id``."""
    frame: Dict[str, Any] = {
        "v": PROTOCOL_VERSION, "id": request_id, "ok": True,
    }
    frame.update(fields)
    return frame


def error_response(request_id: Any, exc: BaseException,
                   code: Optional[str] = None, **fields: Any,
                   ) -> Dict[str, Any]:
    """A typed error envelope for ``exc`` echoing ``request_id``."""
    frame: Dict[str, Any] = {
        "v": PROTOCOL_VERSION, "id": request_id, "ok": False,
        "error": {
            "code": code if code is not None else error_code(exc),
            "type": type(exc).__name__,
            "message": str(exc),
        },
    }
    frame.update(fields)
    return frame


def raise_for_error(response: Dict[str, Any]) -> Dict[str, Any]:
    """Return ``response`` if it is a success frame; re-raise a typed
    exception built from its error envelope otherwise."""
    if response.get("ok"):
        return response
    envelope = response.get("error") or {}
    code = str(envelope.get("code", "INTERNAL"))
    message = str(envelope.get("message", "")) or f"server error ({code})"
    raise exception_for(code, message)
