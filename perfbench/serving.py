"""An in-process ``ElectionServer`` and the one-connection HTTP/1.1 client.

The server runs with the ``repro serve`` defaults (thread backend, 4
workers, a store, a 64 MiB hot tier, ``max_states`` 200 000) on its own
event-loop thread.  The client drives it from the calling thread in a
closed loop: it keeps one keep-alive connection and reopens it whenever the
server closes it, counting every connection it opens.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading
import time
from typing import Iterator, List, Optional, Tuple

from repro.service import ElectionServer, ElectionService
from repro.store import ArtifactStore

SERVE_WORKERS = 4
SERVE_HOT_TIER_BYTES = 64 * 1024 * 1024
SERVE_MAX_STATES = 200_000


class HostedServer:
    """A live server on ``127.0.0.1:<ephemeral>``; ``close()`` stops everything."""

    def __init__(self, store_dir: str) -> None:
        self.store = ArtifactStore(store_dir)
        self.service = ElectionService(
            store=self.store,
            workers=SERVE_WORKERS,
            default_max_states=SERVE_MAX_STATES,
            backend="thread",
            hot_tier_bytes=SERVE_HOT_TIER_BYTES,
        )
        self.server = ElectionServer(self.service, port=0)
        self._loop = asyncio.new_event_loop()
        started = threading.Event()

        def run() -> None:
            asyncio.set_event_loop(self._loop)
            self._loop.run_until_complete(self.server.start())
            started.set()
            self._loop.run_forever()

        self._thread = threading.Thread(target=run, name="perfbench-server", daemon=True)
        self._thread.start()
        if not started.wait(30):
            raise RuntimeError("server failed to start")
        self.port = self.server.port

    def close(self) -> None:
        async def shutdown() -> None:
            await self.server.close()  # also closes the service and its store

        asyncio.run_coroutine_threadsafe(shutdown(), self._loop).result(60)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(60)
        if self._thread.is_alive():
            raise RuntimeError("server thread did not stop")
        self._loop.close()


class _CountingConnection(http.client.HTTPConnection):
    def __init__(self, client: "Client", *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._client = client

    def connect(self) -> None:
        super().connect()
        self._client.connections += 1


class Client:
    """Blocking HTTP/1.1 client over one connection, reopened on close."""

    def __init__(self, port: int) -> None:
        self.connections = 0
        self.requests = 0
        self._conn = _CountingConnection(self, "127.0.0.1", port, timeout=170)

    def close(self) -> None:
        self._conn.close()

    def _send(self, path: str, body: bytes, content_type: str) -> http.client.HTTPResponse:
        self.requests += 1
        self._conn.request(
            "POST", path, body=body, headers={"Content-Type": content_type}
        )
        return self._conn.getresponse()

    def post(self, body: bytes) -> Tuple[int, dict]:
        """``POST /election`` of a JSON body; returns ``(status, decoded body)``."""
        response = self._send("/election", body, "application/json")
        data = response.read()
        if response.will_close:
            self._conn.close()
        return response.status, json.loads(data)

    def post_batch(self, items: List[dict], window: int) -> Iterator[Tuple[float, Optional[dict]]]:
        """``POST /elections`` of an item list; yields ``(arrival time, line)``
        per line of the NDJSON answer stream.

        A non-200 answer yields one ``(time, None)`` per item, so every item
        the batch carried is accounted for.
        """
        body = json.dumps({"items": items, "window": window}).encode("utf-8")
        response = self._send("/elections", body, "application/json")
        if response.status != 200:
            response.read()
            self._conn.close()
            for _item in items:
                yield time.perf_counter(), None
            return
        while True:
            raw = response.readline()
            if not raw:
                break
            yield time.perf_counter(), json.loads(raw)
        response.close()
        if response.will_close:
            self._conn.close()
