"""Randomized concurrency stress schedules against live servers.

The model checker (``tests/test_verify.py``) proves the *protocol* has no
bad interleavings within its bounds; this suite hammers the *real*
implementation -- actual sockets, actual worker processes, actual signals
-- with hypothesis-generated schedules of hostile client behaviour:

* normal queries and NDJSON sweeps, interleaved,
* several requests on one kept-alive connection,
* clients that disconnect mid-stream (RST, not FIN),
* clients that read the stream one tiny chunk at a time,
* malformed sweep-id probes,
* ``SIGKILL`` delivered to live shard workers (process backend).

After every schedule the server must *converge*: health endpoint alive, no
sweep left ``running``, every window slot released, and -- at teardown --
no leaked worker processes.  Schedules are derandomized so a CI failure is
reproducible locally by running the same test.

Marked ``stress``: excluded from the tier-1 run (see ``pytest.ini``), run
by the dedicated CI job via ``-m stress``.
"""

from __future__ import annotations

import http.client
import json
import multiprocessing
import os
import signal
import socket
import struct
import time
import urllib.error
import urllib.request

import pytest
from test_service import _RunningServer
from test_service_batch import _post_stream

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.service import ElectionService

pytestmark = pytest.mark.stress

#: Randomized schedules per backend (the acceptance floor is 200).
EXAMPLES = 200
#: Seconds a server gets to reach quiescence after one schedule.
CONVERGE_TIMEOUT = 10.0

STRESS_SETTINGS = settings(
    max_examples=EXAMPLES,
    deadline=None,  # wall time varies with worker respawns; no per-example cap
    derandomize=True,  # CI failures replay locally with the same schedules
    suppress_health_check=[HealthCheck.too_slow],
)


# --------------------------------------------------------------------------- #
# servers (module-scoped: worker pools amortized across all schedules)
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def thread_server():
    with _RunningServer(ElectionService(backend="thread", workers=4)) as running:
        yield running


@pytest.fixture(scope="module")
def process_server():
    with _RunningServer(
        ElectionService(backend="process", shards=2, recycle_after=16)
    ) as running:
        yield running
    # leak check: closing the service must reap every worker it ever spawned
    deadline = time.time() + CONVERGE_TIMEOUT
    while multiprocessing.active_children() and time.time() < deadline:
        time.sleep(0.05)
    assert not multiprocessing.active_children(), "shard workers leaked past close()"


# --------------------------------------------------------------------------- #
# schedule operations
# --------------------------------------------------------------------------- #
def _op_query(running, n: int) -> None:
    result = running.post(
        "/election", {"spec": {"kind": "asymmetric-cycle", "params": {"n": 5 + n}}}
    )
    assert result["fingerprint"]


def _op_sweep(running, count: int, seed: int, window: int) -> None:
    lines = _post_stream(
        running,
        {"sweep": {"corpus": "mixed", "count": count, "seed": seed}, "window": window},
    )
    assert lines[-1]["status"] == "done"
    assert lines[-1]["ok"] + lines[-1]["errors"] == count


def _op_reuse(running, count: int) -> None:
    """Send ``count`` requests over one keep-alive connection; it must hold."""
    conn = http.client.HTTPConnection("127.0.0.1", running.server.port, timeout=30)
    try:
        sock = None
        for i in range(count):
            if i % 2:
                conn.request("GET", "/healthz")
            else:
                body = json.dumps(
                    {"spec": {"kind": "asymmetric-cycle", "params": {"n": 5 + i}}}
                )
                conn.request("POST", "/election", body=body)
            response = conn.getresponse()
            assert response.status == 200
            json.loads(response.read())
            assert not response.will_close, "the server closed a kept-alive connection"
            sock = sock or conn.sock
            assert conn.sock is sock, "the client had to reconnect"
    finally:
        conn.close()


def _raw_batch_socket(running, payload: dict) -> socket.socket:
    """POST a batch on a raw socket and return it with headers consumed."""
    body = json.dumps(payload).encode("utf-8")
    raw = socket.create_connection(("127.0.0.1", running.server.port), timeout=10)
    raw.sendall(
        (
            f"POST /elections HTTP/1.1\r\nHost: stress\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        + body
    )
    # consume the headers unbuffered (a makefile() reader would also swallow
    # however much of the NDJSON body fits its buffer)
    raw.settimeout(CONVERGE_TIMEOUT)
    buffered = b""
    while b"\r\n\r\n" not in buffered:
        byte = raw.recv(1)
        assert byte, f"connection closed during response headers: {buffered!r}"
        buffered += byte
    assert b" 200 " in buffered.split(b"\r\n", 1)[0], buffered
    return raw

def _op_disconnect(running, count: int, seed: int) -> None:
    """Read the header line, then hang up hard (RST) mid-stream."""
    raw = _raw_batch_socket(
        running, {"sweep": {"corpus": "mixed", "count": count, "seed": seed}, "window": 1}
    )
    try:
        raw.recv(256)
    finally:
        # SO_LINGER(1, 0): close() sends RST instead of FIN, the rudest exit
        raw.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        raw.close()


def _op_slow_read(running, count: int, seed: int) -> None:
    """Drain a stream 64 bytes at a time with pauses (backpressure path)."""
    raw = _raw_batch_socket(
        running, {"sweep": {"corpus": "mixed", "count": count, "seed": seed}, "window": 1}
    )
    try:
        raw.settimeout(CONVERGE_TIMEOUT)
        chunks = []
        while True:
            chunk = raw.recv(64)
            if not chunk:
                break
            chunks.append(chunk)
            time.sleep(0.005)
    finally:
        raw.close()
    lines = [json.loads(line) for line in b"".join(chunks).splitlines()]
    assert lines[-1]["status"] == "done"


def _op_bad_sweep_id(running) -> None:
    try:
        running.get("/sweeps/ZZ..%2Fnope")
        raise AssertionError("expected 404")
    except urllib.error.HTTPError as error:
        assert error.code == 404


def _op_kill_worker(running) -> None:
    """SIGKILL one live shard worker; the backend must respawn and retry."""
    backend = running.service._backend
    pids = [pid for pid in backend.shard_pids() if pid]
    if pids:
        os.kill(pids[0], signal.SIGKILL)


# --------------------------------------------------------------------------- #
# schedule strategies
# --------------------------------------------------------------------------- #
_counts = st.integers(min_value=1, max_value=4)
_seeds = st.integers(min_value=0, max_value=9)
_windows = st.integers(min_value=1, max_value=3)

_common_ops = st.one_of(
    st.tuples(st.just("query"), st.integers(min_value=0, max_value=6)),
    st.tuples(st.just("reuse"), st.integers(min_value=2, max_value=5)),
    st.tuples(st.just("sweep"), _counts, _seeds, _windows),
    st.tuples(st.just("disconnect"), _counts, _seeds),
    st.tuples(st.just("slow_read"), _counts, _seeds),
    st.tuples(st.just("bad_id")),
)

_thread_schedules = st.lists(_common_ops, min_size=1, max_size=4)
_process_schedules = st.lists(
    st.one_of(_common_ops, st.tuples(st.just("kill"))), min_size=1, max_size=3
)


def _run_op(running, op: tuple) -> None:
    kind, args = op[0], op[1:]
    if kind == "query":
        _op_query(running, *args)
    elif kind == "reuse":
        _op_reuse(running, *args)
    elif kind == "sweep":
        _op_sweep(running, *args)
    elif kind == "disconnect":
        _op_disconnect(running, *args)
    elif kind == "slow_read":
        _op_slow_read(running, *args)
    elif kind == "bad_id":
        _op_bad_sweep_id(running)
    elif kind == "kill":
        _op_kill_worker(running)
    else:  # pragma: no cover - strategy and dispatcher must stay in sync
        raise AssertionError(f"unknown op {kind!r}")


def _assert_converged(running) -> None:
    """The server reached quiescence: alive, no running sweeps, window drained."""
    assert running.get("/healthz")["status"] == "ok"
    deadline = time.time() + CONVERGE_TIMEOUT
    stats = None
    while time.time() < deadline:
        stats = running.get("/stats")
        if stats["batch"]["active"] == 0:
            break
        time.sleep(0.05)
    assert stats is not None and stats["batch"]["active"] == 0, (
        f"sweeps stuck running after {CONVERGE_TIMEOUT}s: {stats['batch']}"
    )
    scrape = urllib.request.urlopen(f"{running.base}/metrics").read().decode("utf-8")
    occupancy = next(
        line for line in scrape.splitlines() if line.startswith("repro_window_in_flight ")
    )
    assert occupancy.endswith(" 0"), f"window slot leaked: {occupancy}"
    # the span recorder's memory stays hard-capped no matter how hostile the
    # schedule was; anything over the cap shows up as `dropped`, not growth
    from repro.obs import default_recorder

    recorder = default_recorder.stats()
    assert recorder["traces"] <= recorder["max_traces"], recorder
    assert recorder["spans"] <= recorder["max_traces"] * recorder["max_spans_per_trace"], recorder
    # the snapshot /stats served respects the same cap; exact equality with the
    # live recorder would race against the spans of the /stats request itself
    span_cap = recorder["max_traces"] * recorder["max_spans_per_trace"]
    assert 0 <= stats["traces"]["spans"] <= span_cap, stats["traces"]
    assert stats["traces"]["dropped"] >= 0


# --------------------------------------------------------------------------- #
# the stress tests
# --------------------------------------------------------------------------- #
@STRESS_SETTINGS
@given(schedule=_thread_schedules)
def test_thread_backend_survives_hostile_schedules(thread_server, schedule):
    for op in schedule:
        _run_op(thread_server, op)
    _assert_converged(thread_server)


@STRESS_SETTINGS
@given(schedule=_process_schedules)
def test_process_backend_survives_hostile_schedules(process_server, schedule):
    for op in schedule:
        _run_op(process_server, op)
    _assert_converged(process_server)


def test_worker_sigkill_mid_sweep_is_absorbed():
    """Deterministic companion: a worker killed *mid-computation* costs at
    most the killed item (crash-retry may still complete it); the sweep
    always terminates and the crash is visible in the shard telemetry."""
    with _RunningServer(
        ElectionService(backend="process", shards=1, compute_delay=0.2)
    ) as running:
        raw = _raw_batch_socket(
            running,
            {
                "items": [
                    {"spec": {"kind": "asymmetric-cycle", "params": {"n": n}}}
                    for n in range(5, 11)
                ],
                "window": 1,
            },
        )
        try:
            raw.settimeout(30)
            header_chunk = raw.recv(4096)
            assert header_chunk
            backend = running.service._backend
            pids = [pid for pid in backend.shard_pids() if pid]
            assert pids, "shard worker should be alive mid-sweep"
            os.kill(pids[0], signal.SIGKILL)
            chunks = [header_chunk]
            while True:
                chunk = raw.recv(4096)
                if not chunk:
                    break
                chunks.append(chunk)
        finally:
            raw.close()
        lines = [json.loads(line) for line in b"".join(chunks).splitlines()]
        assert lines[-1]["status"] == "done"
        assert lines[-1]["ok"] + lines[-1]["errors"] == 6
        shards = running.service.stats()["shards"]
        assert shards["crashes"] >= 1
        assert shards["spawns"] >= 2, "the killed worker must be respawned"
        _assert_converged(running)
