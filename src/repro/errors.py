"""Exception hierarchy for the TIX reproduction.

Every error raised by the library derives from :class:`TIXError`, so callers
can catch a single base class at API boundaries.
"""

from __future__ import annotations


class TIXError(Exception):
    """Base class for all library errors."""


class XMLParseError(TIXError):
    """Raised when the XML parser encounters malformed input.

    Carries the (1-based) line and column of the offending position when
    known, so error messages point at the exact spot in the source text.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class DocumentNotFoundError(TIXError):
    """Raised when a store lookup names a document that was never loaded."""


class UnknownTermError(TIXError):
    """Raised when an index lookup is asked for a term with no postings and
    the caller requested strict behaviour."""


class PatternError(TIXError):
    """Raised for malformed scored pattern trees (bad edges, unknown labels,
    scoring functions referencing nodes that do not exist)."""


class QuerySyntaxError(TIXError):
    """Raised by the extended-XQuery front end on syntax errors."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class QueryCompileError(TIXError):
    """Raised when a parsed query cannot be translated to a plan
    (unknown function, unbound variable, unsupported construct)."""


class PlanError(TIXError):
    """Raised when a physical plan is malformed or an operator is driven
    outside its open/next/close protocol."""


class QueryAbortedError(TIXError):
    """Base class for guard-initiated query termination (deadline, budget,
    cancellation).  Catch this to handle "the query did not run to
    completion" uniformly; the subclasses say why."""


class QueryTimeoutError(QueryAbortedError):
    """Raised when a query exceeds its :class:`~repro.resilience.QueryGuard`
    wall-clock deadline."""


class ResourceExhaustedError(QueryAbortedError):
    """Raised when a query exceeds a guard resource budget (output rows,
    materialized subtrees)."""


class QueryCancelledError(QueryAbortedError):
    """Raised when a query's cooperative
    :class:`~repro.resilience.CancellationToken` is cancelled."""


class ServerError(TIXError):
    """Base class for the query-serving layer (wire protocol, admission
    control, client pool).  Catch this to handle "the server could not
    run the query" uniformly; the subclasses say why."""


class ProtocolError(ServerError):
    """Raised on a malformed wire frame: torn length prefix, body that
    is not a JSON object, oversized frame, or unsupported protocol
    version."""


class OverloadedError(ServerError):
    """Raised when admission control rejects a request because the
    server is at ``max_inflight`` and the request waited longer than the
    queue timeout.  Clients should back off (with jitter) and retry."""


class ShuttingDownError(ServerError):
    """Raised when a request arrives while the server is draining for
    shutdown.  In-flight requests are answered; new work is refused."""


class PersistError(TIXError):
    """Raised by store persistence on any I/O, format, or integrity
    failure.  Wraps raw ``OSError``/``json.JSONDecodeError``/``KeyError``
    so callers see one exception type; ``path`` names the offending file
    when known (also embedded in the message)."""

    def __init__(self, message: str, path: str = ""):
        self.path = path
        super().__init__(message)
