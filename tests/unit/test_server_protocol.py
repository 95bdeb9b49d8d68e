"""Wire-protocol unit tests: framing round trips, torn/oversized/
malformed frame hardening, and the error-code taxonomy."""

import json
import socket
import struct

import pytest

from repro.errors import (
    DocumentNotFoundError,
    OverloadedError,
    PlanError,
    ProtocolError,
    QueryCancelledError,
    QuerySyntaxError,
    QueryTimeoutError,
    ResourceExhaustedError,
    ServerError,
    ShuttingDownError,
    TIXError,
)
from repro.server.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    error_code,
    error_response,
    exception_for,
    ok_response,
    raise_for_error,
    read_frame,
    request,
    write_frame,
)


@pytest.fixture()
def pair():
    a, b = socket.socketpair()
    yield a, b
    a.close()
    b.close()


class TestFraming:
    def test_round_trip(self, pair):
        a, b = pair
        frame = request("query", 7, q="For $x in X Return $x",
                        timeout_ms=50.0)
        write_frame(a, frame)
        got = read_frame(b)
        assert got == frame
        assert got["v"] == PROTOCOL_VERSION and got["id"] == 7

    def test_many_frames_in_order(self, pair):
        a, b = pair
        for i in range(5):
            write_frame(a, ok_response(i, n=i))
        for i in range(5):
            got = read_frame(b)
            assert got["id"] == i and got["n"] == i

    def test_clean_close_reads_none(self, pair):
        a, b = pair
        a.close()
        assert read_frame(b) is None

    def test_torn_frame_mid_body(self, pair):
        a, b = pair
        a.sendall(struct.pack("!I", 100) + b'{"tru')
        a.close()
        with pytest.raises(ProtocolError, match="torn frame"):
            read_frame(b)

    def test_torn_frame_mid_header(self, pair):
        a, b = pair
        a.sendall(b"\x00\x00")
        a.close()
        with pytest.raises(ProtocolError, match="torn frame"):
            read_frame(b)

    def test_oversized_frame_rejected_before_allocation(self, pair):
        a, b = pair
        # A hostile length prefix alone must trip the limit — no body
        # is ever sent, so a vulnerable reader would block or allocate.
        a.sendall(struct.pack("!I", MAX_FRAME_BYTES + 1))
        with pytest.raises(ProtocolError, match="exceeds"):
            read_frame(b)

    def test_write_respects_max_bytes(self, pair):
        a, _b = pair
        with pytest.raises(ProtocolError, match="exceeds"):
            write_frame(a, {"blob": "x" * 2048}, max_bytes=1024)

    def test_non_json_body(self, pair):
        a, b = pair
        body = b"not json at all"
        a.sendall(struct.pack("!I", len(body)) + body)
        with pytest.raises(ProtocolError, match="not valid JSON"):
            read_frame(b)

    def test_non_object_body(self, pair):
        a, b = pair
        body = json.dumps([1, 2, 3]).encode()
        a.sendall(struct.pack("!I", len(body)) + body)
        with pytest.raises(ProtocolError, match="JSON object"):
            read_frame(b)


class TestErrorTaxonomy:
    @pytest.mark.parametrize("exc,code", [
        (QueryTimeoutError("t"), "TIMEOUT"),
        (QueryCancelledError("c"), "CANCELLED"),
        (ResourceExhaustedError("r"), "RESOURCE_EXHAUSTED"),
        (QuerySyntaxError("s"), "SYNTAX"),
        (PlanError("p"), "PLAN"),
        (DocumentNotFoundError("d"), "NOT_FOUND"),
        (OverloadedError("o"), "OVERLOADED"),
        (ShuttingDownError("sd"), "SHUTTING_DOWN"),
        (ServerError("se"), "ENGINE"),
        (ProtocolError("pf"), "BAD_FRAME"),
        (TIXError("e"), "ENGINE"),
        (ValueError("v"), "INTERNAL"),
    ])
    def test_error_code_mapping(self, exc, code):
        assert error_code(exc) == code

    def test_exception_for_inverts_the_mapping(self):
        for exc in (QueryTimeoutError("x"), OverloadedError("x"),
                    QuerySyntaxError("x"), ShuttingDownError("x")):
            code = error_code(exc)
            back = exception_for(code, "msg")
            assert type(back) is type(exc)

    def test_unknown_code_falls_back_to_tixerror(self):
        exc = exception_for("SOME_FUTURE_CODE", "m")
        assert type(exc) is TIXError

    def test_envelope_round_trip(self):
        resp = error_response(42, QueryTimeoutError("too slow"))
        assert resp["ok"] is False and resp["id"] == 42
        env = resp["error"]
        assert env["code"] == "TIMEOUT"
        assert env["type"] == "QueryTimeoutError"
        with pytest.raises(QueryTimeoutError, match="too slow"):
            raise_for_error(resp)

    def test_code_override(self):
        resp = error_response(1, ProtocolError("bad v"),
                              code="BAD_REQUEST")
        assert resp["error"]["code"] == "BAD_REQUEST"
        # unknown wire code → generic engine error client-side
        with pytest.raises(TIXError, match="bad v"):
            raise_for_error(resp)

    def test_ok_response_passes_through(self):
        resp = ok_response(9, rows=[], n=0)
        assert raise_for_error(resp) is resp
