"""Compute backends for the election service: thread pool or sharded processes.

The service's heavy work -- graph construction, partition refinement, the
ψ_PPE/ψ_CPPE joint searches -- is pure Python, so the original bounded
``ThreadPoolExecutor`` backend (:class:`ThreadBackend`) can never use more
than one core per request wave.  :class:`ProcessShardBackend` is the
partition-for-load-balance alternative: **N persistent worker processes**,
each owning its own process-wide refinement cache (store-attached through
the same :mod:`repro.runner.bootstrap` initializer the experiment runner's
``multiprocessing`` fan-out uses), with queries routed by a stable hash of
their graph identity:

* **Shard routing is deterministic.**  :func:`shard_index` maps a route key
  (a digest of the query's ``graph``/``spec`` body) to a shard, so repeat
  submissions of one graph -- whatever their task/budget parameters --
  always land on the shard that already refined it.  Warm state is
  per-shard by construction; no cross-process cache coherence is needed.
* **Workers are recycled.**  After ``recycle_after`` tasks a worker exits
  on its own (the parent joins it and lazily spawns a successor), bounding
  any slow accumulation of per-process state -- the classic
  ``maxtasksperchild`` discipline, kept deterministic by counting on both
  sides of the pipe.
* **Crashes are detected and retried once.**  A worker that dies mid-task
  (OOM kill, hard crash) surfaces as a broken pipe; the shard respawns the
  worker and resubmits that one task a single time before giving up with a
  503.  Because every computation is a pure function of the request, a
  resubmit can never produce a different answer.
* **Responses are byte-identical to the thread backend.**  Both backends
  run :func:`repro.service.service.compute_election`; a shard ships the
  response dict back over a pipe, and ``ServiceError`` crosses the
  boundary as plain data, so client-visible behaviour is backend-invariant
  (the CI gate certifies this over a 200-graph mixed-corpus batch).

Workers are spawned **lazily** (first task routed to a shard starts its
process) with the ``spawn`` start method: a service respawns workers while
other threads hold arbitrary locks, which rules out ``fork``.  Shard
worker processes are daemonic, so even an unclean parent exit cannot leak
them; a clean :meth:`ProcessShardBackend.close` asks each worker to exit,
joins it, and terminates it if it will not.
"""

from __future__ import annotations

import asyncio
import hashlib
import multiprocessing
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional

from ..kernel.backend import BACKEND_ENV_VAR
from ..obs import activate as activate_trace
from ..obs import (
    Snapshot,
    counter_snapshot,
    current_context,
    default_recorder,
    merge_snapshots,
    record_span,
)
from ..runner.bootstrap import bootstrap_worker
from ..runner.cache import refinement_cache
from ..store import ArtifactStore
from .protocol import WORKER_DOWN, worker_transition
from .service import ServiceError, compute_election

__all__ = [
    "ComputeBackend",
    "DEFAULT_RECYCLE_AFTER",
    "ProcessShardBackend",
    "ThreadBackend",
    "process_counters",
    "shard_index",
]

#: Default number of tasks a shard worker serves before it is recycled.
DEFAULT_RECYCLE_AFTER = 500

#: Seconds to wait for a worker process (or a busy shard lock) at shutdown
#: before escalating to ``terminate``.
_SHUTDOWN_TIMEOUT = 5.0


def shard_index(key: str, shards: int) -> int:
    """The shard owning ``key``: stable across processes, restarts and runs.

    ``key`` is normally already a hex digest (the service's route key), in
    which case its integer value is used directly; any other string is
    hashed first.  Python's built-in ``hash`` is deliberately avoided -- it
    is salted per process, and routing must be deterministic so warm caches
    stay sticky across reconnects and service restarts.
    """
    if shards < 1:
        raise ValueError("shards must be at least 1")
    try:
        value = int(key, 16)
    except ValueError:
        value = int.from_bytes(
            hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest(), "big"
        )
    return value % shards


def process_counters() -> Snapshot:
    """This process's counter snapshot plus the cache's ``live_bytes``.

    What a backend reports for a process that computes: a shard worker
    ships it with every reply, the thread backend reads it in place for
    ``/stats``.  ``live_bytes`` is the one ``/stats`` cache figure that
    takes a scan, so it is added here and not to the snapshot that span
    tags and ``/metrics`` scrapes read.
    """
    snapshot = counter_snapshot(refinement_cache)
    snapshot["cache"]["live_bytes"] = refinement_cache.live_bytes()
    return snapshot


class ComputeBackend:
    """Interface both backends implement (duck-typed; this is documentation).

    ``submit(route_key, parsed)`` computes one parsed query off the event
    loop and returns the response dict (raising :class:`ServiceError` for
    client errors).  ``counters()`` returns the cache/search/store snapshot
    of wherever the computing happens (``live_bytes=True`` adds the cache's
    scanned ``live_bytes``, for ``/stats``), and ``shard_rows()`` one row
    per shard (none for threads); ``/stats`` and ``/metrics`` both render
    from these two.  Neither touches a worker pipe: a shard worker ships its
    cumulative counters with every reply, so a read while a shard is
    mid-job sees that shard as of its previous reply, and a read at a
    quiescent moment is exact.  ``close()`` shuts the backend down
    idempotently and deterministically.
    """

    name: str
    concurrency: int

    async def submit(self, route_key: str, parsed: Dict[str, Any]) -> Dict[str, Any]:
        raise NotImplementedError

    def counters(self, *, live_bytes: bool = False) -> Snapshot:
        raise NotImplementedError

    def shard_rows(self) -> List[Dict[str, Any]]:
        raise NotImplementedError

    def queue_depth(self) -> int:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


# --------------------------------------------------------------------------- #
# thread backend (the original)
# --------------------------------------------------------------------------- #
class ThreadBackend(ComputeBackend):
    """The bounded in-process pool: simple, GIL-bound, zero start-up cost."""

    name = "thread"

    def __init__(self, *, workers: int, compute_delay: float = 0.0) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.concurrency = workers
        self._compute_delay = compute_delay
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve"
        )
        self._closed = False

    async def submit(self, route_key: str, parsed: Dict[str, Any]) -> Dict[str, Any]:
        if self._closed:
            raise ServiceError(503, "service is shutting down")
        loop = asyncio.get_running_loop()
        # run_in_executor does not propagate contextvars: capture the trace
        # context here and re-enter it in the pool thread
        context = current_context()
        submitted = (time.time(), time.perf_counter()) if context is not None else None
        return await loop.run_in_executor(self._executor, self._call, parsed, context, submitted)

    def _call(self, parsed: Dict[str, Any], context=None, submitted=None) -> Dict[str, Any]:
        if submitted is not None:
            record_span(
                "queue_wait",
                start_s=submitted[0],
                duration_ms=(time.perf_counter() - submitted[1]) * 1000.0,
                context=context,
            )
        with activate_trace(context):
            return compute_election(parsed, compute_delay=self._compute_delay)

    def counters(self, *, live_bytes: bool = False) -> Snapshot:
        """Computing happens in this process: its own counters."""
        return process_counters() if live_bytes else counter_snapshot(refinement_cache)

    def shard_rows(self) -> List[Dict[str, Any]]:
        """No shards (uniform interface with the process backend)."""
        return []

    def queue_depth(self) -> int:
        """Computations accepted but not yet started (for /metrics)."""
        return self._executor._work_queue.qsize()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        # wait=True joins the worker threads deterministically (they are not
        # daemons); cancel_futures drops queued-but-unstarted computations
        self._executor.shutdown(wait=True, cancel_futures=True)


# --------------------------------------------------------------------------- #
# process backend
# --------------------------------------------------------------------------- #
def _worker_stats(jobs_done: int) -> Dict[str, Any]:
    """This worker's job count and cumulative counters (also its retirement will)."""
    return {"jobs": jobs_done, "counters": process_counters()}


def _job_extras(context, jobs_done: int) -> Dict[str, Any]:
    """The observability payload piggybacked on every job reply.

    ``stats`` is this worker's job count and cumulative counters after the
    job -- the parent keeps the latest per shard, and ``/stats`` and
    ``/metrics`` read them from there without a pipe round trip.  With a
    trace context the worker's spans for that trace ride along too (and
    leave this process's recorder), so one ``/trace/<id>`` tree shows
    parent and shard stages.
    """
    extras: Dict[str, Any] = {"stats": _worker_stats(jobs_done)}
    if context is not None:
        extras["spans"] = default_recorder.pop_trace(context[0])
    return extras


def _send_or_exit(conn, message) -> bool:
    """Send on the parent pipe; ``False`` (worker should exit quietly) if gone."""
    try:
        conn.send(message)
        return True
    except (BrokenPipeError, ConnectionResetError, OSError):
        # the parent closed our pipe (e.g. a timed-out shutdown escalated to
        # terminate while we were computing): exit cleanly, not a traceback
        return False


def _shard_main(
    conn,
    store_path: Optional[str],
    compute_delay: float,
    recycle_after: int,
    kernel_backend: Optional[str] = None,
    hot_tier_bytes: int = 0,
    cache_admission: Optional[str] = None,
) -> None:
    """One shard worker: serve jobs off a pipe until recycled or told to exit."""
    bootstrap_worker(
        store_path,
        kernel_backend,
        hot_tier_bytes=hot_tier_bytes,
        cache_admission=cache_admission,
    )
    jobs_done = 0
    while True:
        try:
            message = conn.recv()
        except (EOFError, KeyboardInterrupt):
            break
        op = message[0]
        if op == "exit":
            _send_or_exit(conn, ("bye", _worker_stats(jobs_done)))
            break
        if op == "ping":
            if not _send_or_exit(conn, ("ok", os.getpid())):
                break
            continue
        parsed = message[1]
        context = message[2] if len(message) > 2 else None
        try:
            with activate_trace(context):
                result = compute_election(parsed, compute_delay=compute_delay)
            reply = ("ok", result, _job_extras(context, jobs_done + 1))
        except ServiceError as error:
            # ship as plain data: the exception's two-argument constructor
            # does not round-trip through pickle
            reply = ("service_error", error.status, error.message, _job_extras(context, jobs_done + 1))
        except Exception as error:  # pragma: no cover - defensive
            reply = ("error", f"{type(error).__name__}: {error}")
        if not _send_or_exit(conn, reply):
            break
        jobs_done += 1
        if recycle_after and jobs_done >= recycle_after:
            # the parent counts too: it collects this final snapshot (so the
            # shard's cumulative counters survive recycling), joins us, and
            # spawns a successor on the next task
            _send_or_exit(conn, ("retired", _worker_stats(jobs_done)))
            break


class _Shard:
    """Parent-side handle of one shard: worker process + pipe + dispatcher.

    All pipe traffic is serialised by ``_lock`` (one outstanding message per
    worker); ``dispatcher`` is a dedicated single-thread executor so the
    event loop submits jobs without blocking and per-shard ordering is FIFO.

    The worker's lifecycle state (``down``/``idle``/``busy``/``closed``)
    advances only through the shared transition table in
    :mod:`repro.service.protocol` -- the same table ``repro verify``
    explores exhaustively -- so a lifecycle step the protocol forbids
    raises :class:`~repro.service.protocol.ProtocolViolation` here instead
    of hanging a dispatched job.
    """

    def __init__(
        self,
        index: int,
        *,
        context,
        store_path: Optional[str],
        compute_delay: float,
        recycle_after: int,
        hot_tier_bytes: int = 0,
        cache_admission: Optional[str] = None,
    ) -> None:
        self.index = index
        self._context = context
        self._store_path = store_path
        self._compute_delay = compute_delay
        self._recycle_after = recycle_after
        self._hot_tier_bytes = hot_tier_bytes
        self._cache_admission = cache_admission
        self._lock = threading.Lock()
        self.dispatcher = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"repro-shard-{index}"
        )
        self._process = None
        self._conn = None
        self._jobs_since_spawn = 0
        self._closed = False
        #: Protocol lifecycle state (all transitions under ``_lock``, except
        #: the final ``close`` which is serialised by ``_closed``).
        self.state = WORKER_DOWN
        self.dispatched = 0
        self.spawns = 0
        self.recycles = 0
        self.crashes = 0
        #: Seconds this shard's pipe was occupied by jobs (the heat signal).
        self.busy_seconds = 0.0
        #: The live worker's job count and counters as of its latest reply
        #: (``{"jobs": ..., "counters": ...}``; empty until it replies).
        self.live: Dict[str, Any] = {}
        # job count and counters inherited from cleanly retired workers (a
        # crashed worker's die with it); replaced, never mutated, so readers
        # on other threads need no lock
        self.retired_jobs = 0
        self.retired: Snapshot = {}

    # -- lifecycle (all called with ``_lock`` held) --------------------- #
    def _spawn(self) -> None:
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_shard_main,
            args=(
                child_conn,
                self._store_path,
                self._compute_delay,
                self._recycle_after,
                # the parent's backend *request* (not its resolution), so a
                # shard without numpy falls back instead of failing
                os.environ.get(BACKEND_ENV_VAR, "auto"),
                self._hot_tier_bytes,
                self._cache_admission,
            ),
            name=f"repro-shard-{self.index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        self._process = process
        self._conn = parent_conn
        self._jobs_since_spawn = 0
        self.spawns += 1
        self.state = worker_transition(self.state, "spawn")

    def _discard(self, reason: str) -> None:
        """Drop the worker process; ``reason`` is the protocol event
        (``crash``/``retire``/``close``) that removes it."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None
        if self._process is not None:
            if self._process.is_alive():
                self._process.terminate()
            self._process.join(timeout=_SHUTDOWN_TIMEOUT)
            self._process = None
        self.live = {}
        self.state = worker_transition(self.state, reason)

    def _ensure_worker(self) -> None:
        if self._closed:
            raise ServiceError(503, "service is shutting down")
        if self._process is not None and not self._process.is_alive():
            # died between requests (a recycle exit is reaped eagerly in
            # call(), so an exited process found here crashed while idle)
            self.crashes += 1
            self._discard("crash")
        if self._process is None:
            self._spawn()

    # -- operations ----------------------------------------------------- #
    def call(self, parsed: Dict[str, Any], context=None, submitted=None):
        """Dispatch one job to this shard's worker; detect crashes, retry once.

        ``context`` is the request's trace context ``(trace_id, span_id)``:
        it crosses the pipe with the job so the worker's spans join the
        trace, and this (dispatcher-thread) side records the ``queue_wait``
        and per-attempt ``dispatch`` spans around the round trip.
        """
        if submitted is not None:
            record_span(
                "queue_wait",
                start_s=submitted[0],
                duration_ms=(time.perf_counter() - submitted[1]) * 1000.0,
                context=context,
                tags={"shard": self.index},
            )
        with self._lock:
            self.dispatched += 1
            for attempt in (1, 2):
                self._ensure_worker()
                self.state = worker_transition(self.state, "dispatch")
                dispatch_wall = time.time()
                dispatch_t0 = time.perf_counter()
                try:
                    self._conn.send(("job", parsed, context))
                    reply = self._conn.recv()
                except (EOFError, BrokenPipeError, ConnectionResetError, OSError):
                    self.busy_seconds += time.perf_counter() - dispatch_t0
                    self.crashes += 1
                    self._discard("crash")
                    if attempt == 2:
                        raise ServiceError(
                            503,
                            f"shard {self.index} worker crashed twice on one query",
                        ) from None
                    continue
                busy = time.perf_counter() - dispatch_t0
                self.busy_seconds += busy
                record_span(
                    "dispatch",
                    start_s=dispatch_wall,
                    duration_ms=busy * 1000.0,
                    context=context,
                    tags={"shard": self.index, "attempt": attempt},
                )
                reply = self._absorb_extras(reply)
                self.state = worker_transition(self.state, "reply")
                self._jobs_since_spawn += 1
                if self._recycle_after and self._jobs_since_spawn >= self._recycle_after:
                    # the worker sends a final stats snapshot and exits after
                    # its last job; absorb the snapshot and reap it now so
                    # its successor spawns on the next call
                    try:
                        if self._conn.poll(_SHUTDOWN_TIMEOUT):
                            farewell = self._conn.recv()
                            if farewell[0] == "retired":
                                self._absorb(farewell[1])
                    except (EOFError, BrokenPipeError, ConnectionResetError, OSError):
                        pass
                    self._process.join(timeout=_SHUTDOWN_TIMEOUT)
                    self._discard("retire")
                    self.recycles += 1
                return reply
        raise AssertionError("unreachable")  # pragma: no cover

    def ping(self) -> Optional[int]:
        """The live worker's PID, spawning it first if need be; ``None`` if
        the shard stays busy or the worker does not answer.

        Holding the lock means the worker is idle (no job on the pipe), so
        a healthy worker answers at once; a poll timeout means it is wedged
        (e.g. hung in bootstrap), and the pipe now holds a pending reply
        nothing should read -- discard the worker rather than poison the
        next exchange.  Spawn failures propagate (they mean process
        creation is broken, not that the worker crashed).
        """
        if not self._lock.acquire(timeout=_SHUTDOWN_TIMEOUT):
            return None
        try:
            self._ensure_worker()
            try:
                self._conn.send(("ping",))
                if not self._conn.poll(_SHUTDOWN_TIMEOUT):
                    raise EOFError("ping timed out")
                return self._conn.recv()[1]
            except (EOFError, BrokenPipeError, ConnectionResetError, OSError):
                self.crashes += 1
                self._discard("crash")
                return None
        finally:
            self._lock.release()

    def row(self) -> Dict[str, Any]:
        """This shard's ``/stats`` and ``/metrics`` row, from parent-side state."""
        process = self._process
        alive = process is not None and process.is_alive()
        return {
            "shard": self.index,
            "alive": alive,
            "state": self.state,
            "pid": process.pid if alive else None,
            "jobs": self.live.get("jobs", 0) + self.retired_jobs,
            "dispatched": self.dispatched,
            "spawns": self.spawns,
            "recycles": self.recycles,
            "crashes": self.crashes,
            "busy_seconds": round(self.busy_seconds, 6),
            "queue_depth": self.dispatcher._work_queue.qsize(),
        }

    def _absorb_extras(self, reply):
        """Strip the observability extras off a job reply and apply them.

        Extras carry the worker's job count and cumulative counters (kept
        as this shard's ``live`` state) and, for traced jobs, the
        worker-side spans of the request's trace, absorbed into the
        parent's recorder.
        Returns the reply without the extras (the wire shape the backend's
        ``submit`` consumes).
        """
        if reply[0] == "ok" and len(reply) > 2:
            extras = reply[2]
            reply = reply[:2]
        elif reply[0] == "service_error" and len(reply) > 3:
            extras = reply[3]
            reply = reply[:3]
        else:
            return reply
        if isinstance(extras, dict):
            stats = extras.get("stats")
            if isinstance(stats, dict):
                self.live = stats
            default_recorder.absorb(extras.get("spans"))
        return reply

    def _absorb(self, final_stats: Dict[str, Any]) -> None:
        """Fold a retiring worker's farewell into this shard's retired totals."""
        self.retired = merge_snapshots(self.retired, final_stats["counters"])
        self.retired_jobs += final_stats["jobs"]

    def close(self) -> None:
        """Shut this shard down: graceful exit handshake, or terminate.

        The graceful path (send ``exit``, absorb the farewell, join) runs
        only when the shard lock could be acquired -- ``Connection`` is not
        safe for concurrent use, so if a dispatched job is still mid-pipe
        after the timeout the worker is terminated instead, which surfaces
        in the blocked ``call()`` as ``EOFError`` and (the shard now being
        closed) a clean 503.
        """
        self._closed = True
        acquired = self._lock.acquire(timeout=_SHUTDOWN_TIMEOUT)
        try:
            process, conn = self._process, self._conn
            if acquired:
                self._process = self._conn = None
                if process is not None and process.is_alive() and conn is not None:
                    try:
                        conn.send(("exit",))
                        if conn.poll(_SHUTDOWN_TIMEOUT):
                            farewell = conn.recv()
                            if farewell[0] == "bye":
                                self._absorb(farewell[1])
                    except (BrokenPipeError, ConnectionResetError, OSError, EOFError):
                        pass
                    process.join(timeout=_SHUTDOWN_TIMEOUT)
            if process is not None and process.is_alive():
                process.terminate()
                process.join(timeout=_SHUTDOWN_TIMEOUT)
            if acquired and conn is not None:
                conn.close()
        finally:
            # close is legal from every state (a busy worker is terminated;
            # its blocked caller surfaces a crash against the closed state)
            self.state = worker_transition(self.state, "close")
            if acquired:
                self._lock.release()
        self.dispatcher.shutdown(wait=True, cancel_futures=True)


class ProcessShardBackend(ComputeBackend):
    """Hash-sharded persistent worker processes (see the module docstring)."""

    name = "process"

    def __init__(
        self,
        *,
        shards: int,
        store: Optional[ArtifactStore] = None,
        compute_delay: float = 0.0,
        recycle_after: Optional[int] = None,
        start_method: Optional[str] = None,
        hot_tier_bytes: int = 0,
        cache_admission: Optional[str] = None,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be at least 1")
        if recycle_after is None:
            recycle_after = DEFAULT_RECYCLE_AFTER
        if recycle_after < 1:
            raise ValueError("recycle_after must be at least 1")
        if start_method is None:
            # spawn: the parent respawns workers mid-serving while other
            # threads hold locks, which forking would copy in a locked state
            start_method = "spawn" if "spawn" in multiprocessing.get_all_start_methods() else None
        context = multiprocessing.get_context(start_method)
        self.concurrency = shards
        self.recycle_after = recycle_after
        #: The parent's own store handle: compaction runs on it, so its
        #: counters join the shards' (each worker opens its own handle).
        self._store = store
        # every cache/search counter reads 0 until some shard has replied
        local = counter_snapshot(refinement_cache)
        self._zero: Snapshot = {
            "cache": dict.fromkeys([*local["cache"], "live_bytes"], 0),
            "search": dict.fromkeys(local["search"], 0),
            "store": {},
        }
        self._shards = [
            _Shard(
                index,
                context=context,
                store_path=store.root if store is not None else None,
                compute_delay=compute_delay,
                recycle_after=recycle_after,
                hot_tier_bytes=hot_tier_bytes,
                cache_admission=cache_admission,
            )
            for index in range(shards)
        ]
        self._closed = False
        # eagerly spawn and round-trip one worker: shards are otherwise
        # lazy, and a platform where process creation fails (blocked clone,
        # exhausted RLIMIT_NPROC, broken spawn) must fail *here*, where the
        # service's thread-backend fallback can catch it, not as a 500 on
        # the first query
        if self._shards[0].ping() is None:
            self.close()
            raise OSError("shard worker failed to start")

    # ------------------------------------------------------------------ #
    @property
    def shards(self) -> int:
        return len(self._shards)

    def shard_for(self, route_key: str) -> int:
        """Which shard serves ``route_key`` (deterministic; see :func:`shard_index`)."""
        return shard_index(route_key, len(self._shards))

    def shard_pids(self) -> List[Optional[int]]:
        """Live worker PIDs per shard (spawning workers on demand); for tests/ops."""
        return [shard.ping() for shard in self._shards]

    async def submit(self, route_key: str, parsed: Dict[str, Any]) -> Dict[str, Any]:
        if self._closed:
            raise ServiceError(503, "service is shutting down")
        shard = self._shards[self.shard_for(route_key)]
        loop = asyncio.get_running_loop()
        # capture the trace context for the dispatcher thread and the worker
        # process (contextvars cross neither boundary on their own)
        context = current_context()
        submitted = (time.time(), time.perf_counter()) if context is not None else None
        reply = await loop.run_in_executor(
            shard.dispatcher, shard.call, parsed, context, submitted
        )
        status = reply[0]
        if status == "ok":
            return reply[1]
        if status == "service_error":
            raise ServiceError(reply[1], reply[2])
        raise RuntimeError(f"shard worker error: {reply[1]}")

    def counters(self, *, live_bytes: bool = False) -> Snapshot:
        """The shards' counters, summed: each shard's latest reply plus its
        retired workers', and the parent's own store handle.  The workers
        ship their ``live_bytes`` with every reply, so it is in the cache
        section either way, at no cost here.

        Parent-side state only -- no pipe round trip, so neither ``/stats``
        nor a ``/metrics`` scrape ever waits on a busy shard.  Unspawned
        shards contribute zeros and a crashed worker's counters die with
        it.  A shard that is mid-job shows its counters as of its previous
        reply (every reply carries the worker's cumulative counters after
        the job), so a read at a quiescent moment is exact -- e.g. a
        store-warm replay must show zero refinement passes no matter which
        processes did the work.
        """
        snapshots = [self._zero]
        for shard in self._shards:
            snapshots += [shard.retired, shard.live.get("counters", {})]
        if self._store is not None:
            snapshots.append({"store": self._store.counters()})
        return merge_snapshots(*snapshots)

    def shard_rows(self) -> List[Dict[str, Any]]:
        """One row per shard: lifecycle, job counts, load (see :meth:`_Shard.row`)."""
        return [shard.row() for shard in self._shards]

    def queue_depth(self) -> int:
        """Jobs waiting on shard dispatchers, not yet on a pipe (for /metrics)."""
        return sum(shard.dispatcher._work_queue.qsize() for shard in self._shards)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for shard in self._shards:
            shard.close()
