"""HTTP/1.1 keep-alive on raw sockets, under the suite's service backend.

A connection carries requests one after another -- pipelined ones too --
until the client asks to close (``Connection: close``, HTTP/1.0), half-closes
its side, sends a batch (an NDJSON stream ends at close) or sends something
the server cannot frame.  ``ElectionServer.close()`` ends idle connections
at once instead of waiting for their clients to hang up.
"""

from __future__ import annotations

import json
import socket
import time

import pytest
from test_service import _RunningServer, make_service

SPEC_BODY = json.dumps({"spec": {"kind": "asymmetric-cycle", "params": {"n": 6}}})


@pytest.fixture(autouse=True)
def _detached_process_cache(isolated_refinement_cache):
    yield


@pytest.fixture(scope="module")
def running():
    with _RunningServer(make_service(workers=1)) as server:
        yield server


def _request(method: str, path: str, body: str = "", *, version="HTTP/1.1", headers=()) -> bytes:
    lines = [f"{method} {path} {version}", "Host: keepalive"]
    lines += list(headers)
    if body:
        lines.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(lines) + "\r\n\r\n" + body).encode("ascii")


def _read_response(reader):
    """``(status, headers, body)`` of one Content-Length-framed response."""
    status_line = reader.readline()
    assert status_line, "connection closed before a response"
    status = int(status_line.split()[1])
    headers = {}
    while True:
        line = reader.readline().decode("latin-1").strip()
        if not line:
            break
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    body = reader.read(int(headers["content-length"]))
    return status, headers, body


def _connect(running):
    raw = socket.create_connection(("127.0.0.1", running.server.port), timeout=10)
    return raw, raw.makefile("rb")


def _closed(raw, reader) -> bool:
    """Whether the server closed the connection after what was read."""
    raw.settimeout(10)
    try:
        return reader.read(1) == b""
    except ConnectionResetError:  # closed with request bytes still unread
        return True


def test_requests_share_one_connection(running):
    raw, reader = _connect(running)
    try:
        raw.sendall(_request("GET", "/healthz"))
        status, headers, _body = _read_response(reader)
        assert status == 200 and headers["connection"] == "keep-alive"
        for _ in range(2):
            raw.sendall(_request("POST", "/election", SPEC_BODY))
            status, headers, body = _read_response(reader)
            assert status == 200 and headers["connection"] == "keep-alive"
            assert json.loads(body)["fingerprint"]
        raw.sendall(_request("GET", "/nowhere"))
        status, headers, _body = _read_response(reader)
        assert status == 404 and headers["connection"] == "keep-alive"
    finally:
        reader.close()
        raw.close()


def test_pipelined_requests_are_answered_in_order(running):
    raw, reader = _connect(running)
    try:
        raw.sendall(
            _request("POST", "/election", SPEC_BODY)
            + _request("GET", "/healthz")
            + _request("GET", "/stats", headers=["Connection: close"])
        )
        first = _read_response(reader)
        second = _read_response(reader)
        third = _read_response(reader)
        assert json.loads(first[2])["graph"] == "asymmetric-cycle(n=6)"
        assert json.loads(second[2])["status"] == "ok"
        assert "service" in json.loads(third[2])
        assert third[1]["connection"] == "close"
        assert _closed(raw, reader)
    finally:
        reader.close()
        raw.close()


@pytest.mark.parametrize(
    "version, headers",
    [("HTTP/1.1", ["Connection: close"]), ("HTTP/1.0", []), ("HTTP/1.0", ["Connection: keep-alive"])],
)
def test_close_requests_and_http10_close_after_the_response(running, version, headers):
    raw, reader = _connect(running)
    try:
        raw.sendall(_request("POST", "/election", SPEC_BODY, version=version, headers=headers))
        status, response_headers, _body = _read_response(reader)
        assert status == 200 and response_headers["connection"] == "close"
        assert _closed(raw, reader)
    finally:
        reader.close()
        raw.close()


def test_half_closed_client_gets_its_response_then_eof(running):
    raw, reader = _connect(running)
    try:
        raw.sendall(_request("POST", "/election", SPEC_BODY))
        raw.shutdown(socket.SHUT_WR)
        status, _headers, body = _read_response(reader)
        assert status == 200 and json.loads(body)["indices"]
        assert _closed(raw, reader)
    finally:
        reader.close()
        raw.close()


def test_batch_stream_ends_with_a_close(running):
    items = {"items": [{"spec": {"kind": "star", "params": {"leaves": n}}} for n in (3, 4)]}
    raw, reader = _connect(running)
    try:
        raw.sendall(_request("GET", "/healthz"))
        assert _read_response(reader)[0] == 200
        raw.sendall(_request("POST", "/elections", json.dumps(items)))
        assert b" 200 " in reader.readline()
        headers = []
        while True:
            line = reader.readline()
            if line in (b"\r\n", b""):
                break
            headers.append(line.decode("latin-1").strip().lower())
        assert "connection: close" in headers
        lines = [json.loads(line) for line in reader.read().splitlines()]
        assert lines[-1]["status"] == "done" and lines[-1]["ok"] == 2
    finally:
        reader.close()
        raw.close()


@pytest.mark.parametrize(
    "bad, message",
    [
        (b"garbage\r\n\r\n", "malformed"),
        # a chunked body the server does not read would frame the next request
        (_request("POST", "/election", headers=["Transfer-Encoding: chunked"])
         + b"5\r\nhello\r\n0\r\n\r\n", "Transfer-Encoding"),
    ],
)
def test_unframeable_second_request_gets_400_then_close(running, bad, message):
    raw, reader = _connect(running)
    try:
        raw.sendall(_request("GET", "/healthz"))
        assert _read_response(reader)[0] == 200
        raw.sendall(bad)
        status, headers, body = _read_response(reader)
        assert status == 400 and headers["connection"] == "close"
        assert message in json.loads(body)["error"]
        assert _closed(raw, reader)
    finally:
        reader.close()
        raw.close()


def test_close_ends_idle_connections_promptly():
    with _RunningServer(make_service(workers=1)) as running:
        raw, reader = _connect(running)
        raw.sendall(_request("GET", "/healthz"))
        assert _read_response(reader)[0] == 200
        # the connection now idles, waiting for a next request
        started = time.perf_counter()
    try:
        assert time.perf_counter() - started < 5.0
        assert _closed(raw, reader), "the idle connection was left open"
    finally:
        reader.close()
        raw.close()
