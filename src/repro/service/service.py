"""The election-query service: coalesced, bounded, store-backed computation.

:class:`ElectionService` is the transport-agnostic core behind
``repro-leader-election serve``.  A query names a graph -- either a full
adjacency (the JSON dict format of :mod:`repro.portgraph.io`) or a generator
spec from the runner's graph-kind registry -- plus optional task and search
parameters, and the answer is feasibility, the requested ψ_Z indices and
(optionally) the bit-exact full-map advice string.  Everything returned is a
pure function of the graph and parameters, which the service exploits twice:

* **Request coalescing.**  Identical queries in flight share one
  computation: the first request registers a future keyed by a digest of the
  canonical request body, duplicates await it, and the ``coalesced`` flag of
  the response (and the ``/stats`` counter) records the dedup.  Differently
  labeled isomorphic submissions hash differently, but they still converge
  in the layers below (refinement cache buckets, store fingerprints).
* **A bounded worker backend.**  Cold computations run off the event loop
  on one of two interchangeable backends (:mod:`repro.service.workers`):
  the default fixed-size *thread* pool, or a *process* backend that
  hash-shards queries across persistent worker processes so refinement and
  the ψ searches escape the GIL (``repro serve --backend process
  --shards N``).  Either way the event loop keeps accepting connections and
  serving ``/stats`` while searches run, and at most ``workers`` (or one
  per shard) computations are in flight, the rest queue.

With a store attached the service is a thin front end over the durable
layer: queries warm-start from records persisted by any earlier process and
write their own results through, so a service restart costs nothing and a
fleet of service processes shares one artifact set.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from ..core import Task
from ..obs import Snapshot
from ..obs import span as obs_span
from ..portgraph.io import graph_from_dict
from ..portgraph.validation import PortLabelingError
from ..runner import GraphSpec, SweepSpec, evaluate_graph, refinement_cache
from ..store import ArtifactStore

__all__ = [
    "ElectionService",
    "ServiceError",
    "compute_election",
    "deterministic_response",
    "shard_totals",
]

#: Hard cap on submitted adjacency sizes (nodes); protects the joint
#: searches and the event loop from accidental monster submissions.
MAX_SUBMITTED_NODES = 100_000

#: Response fields that legitimately vary between otherwise identical
#: queries (wall time, whether this request drafted behind another, the
#: serving request's trace id, which lifecycle path a delta item took --
#: first submission replays, a repeat hits the cache).  The batch endpoint
#: strips them before stamping its own per-request trace, so streamed items
#: are byte-identical to what sequential ``POST /election`` calls return
#: minus exactly this set, and the CI gate compares through the same helper.
VOLATILE_RESPONSE_FIELDS = frozenset(
    {"elapsed_ms", "coalesced", "trace_id", "delta_path"}
)


def deterministic_response(response: Dict[str, Any]) -> Dict[str, Any]:
    """``response`` without the volatile fields: the pure-function-of-the-graph part."""
    return {key: value for key, value in response.items() if key not in VOLATILE_RESPONSE_FIELDS}


class ServiceError(Exception):
    """A client error with an HTTP status (bad graph, bad parameters)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def _resolve_delta(parsed: Dict[str, Any]):
    """Resolve a ``{"base": ..., "delta": [...]}`` item into a warm cache entry.

    Drives the delta-item lifecycle (:mod:`repro.service.protocol`):
    ``lookup`` -> resolve the base (spec build, or store fingerprint; a
    missing fingerprint is ``base_miss`` and, because the mutated graph
    cannot be reconstructed without the base adjacency, fails the item) ->
    :meth:`~repro.runner.cache.RefinementCache.delta_entry` (which reports
    ``cache_hit``, or ``base_hit``/``memos_invalidated``/``replayed``).
    Returns ``(entry, label, delta_section, status)``; the caller finishes
    the lifecycle with ``evaluated`` after the election evaluation.
    """
    from ..portgraph.delta import DeltaError, GraphDelta
    from .protocol import DeltaStatus

    status = DeltaStatus()
    status.apply("lookup")
    try:
        delta = GraphDelta.from_payload(parsed["delta"])
    except (DeltaError, ValueError, TypeError) as error:
        status.apply("error")
        raise ServiceError(400, f"invalid delta: {error}") from None
    base_ref = parsed["base"]
    if isinstance(base_ref, dict):
        try:
            spec = GraphSpec.make(base_ref["kind"], **base_ref.get("params", {}))
            # a peek: delta_entry counts its own base lookup
            cached = refinement_cache.spec_entry(spec, request=False)
            base_graph = cached.graph if cached is not None else spec.build()
        except ValueError as error:
            status.apply("error")
            raise ServiceError(400, str(error)) from None
        base_label = spec.label
    else:
        store = refinement_cache.store
        record = store.get(base_ref) if store is not None else None
        if record is None:
            status.apply("base_miss")
            # without the base adjacency the mutated graph cannot be built,
            # so the recompute fallback has nothing to recompute from
            status.apply("error")
            raise ServiceError(
                404, f"base fingerprint {base_ref!r} is not in the store"
            )
        base_graph = record.graph
        record.adopt_onto(base_graph)
        base_label = base_graph.name or base_ref[:12]
    events: list = []
    try:
        entry = refinement_cache.delta_entry(base_graph, delta, events=events)
    except DeltaError as error:
        for event in events:
            status.apply(event)
        status.apply("error")
        raise ServiceError(400, f"delta does not apply to base: {error}") from None
    for event in events:
        status.apply(event)
    delta_section = {
        "base": base_label,
        "digest": delta.digest(),
        "edit_distance": delta.edit_distance,
    }
    return entry, entry.graph.name or base_label, delta_section, status


def _check_size(graph) -> None:
    if graph.num_nodes > MAX_SUBMITTED_NODES:
        raise ServiceError(400, f"graph too large (> {MAX_SUBMITTED_NODES} nodes)")


def compute_election(parsed: Dict[str, Any], *, compute_delay: float = 0.0) -> Dict[str, Any]:
    """Resolve a parsed query to its cache entry and answer it (pure worker-side code).

    Runs on whichever backend the service uses -- a thread of the bounded
    pool or a shard worker process -- and touches only process-wide state
    (the refinement cache and, through it, the attached store), never the
    service instance, so thread and process backends execute the very same
    code and return byte-identical responses.

    Every answer is read off the entry's own graph, whose refinement (and
    fingerprint) the cache already holds: a warm request refines nothing.
    A repeat spec query does not even build its graph -- the cache's spec
    index names the entry.  Only the map advice is encoded from the
    request's own graph when there is one, because it carries the graph's
    name.
    """
    with obs_span("compute_election") as sp:
        if compute_delay:
            time.sleep(compute_delay)
        started = time.perf_counter()
        delta_section = delta_status = None
        entry = request_graph = spec = None
        with obs_span("graph_build"):
            if parsed.get("delta") is not None:
                entry, label, delta_section, delta_status = _resolve_delta(parsed)
                _check_size(entry.graph)
            elif parsed["spec"] is not None:
                spec_dict = parsed["spec"]
                try:
                    spec = GraphSpec.make(spec_dict["kind"], **spec_dict.get("params", {}))
                    entry = refinement_cache.spec_entry(spec)
                    if entry is None:
                        request_graph = spec.build()
                except ValueError as error:
                    raise ServiceError(400, str(error)) from None
                label = spec.label
            else:
                try:
                    request_graph = graph_from_dict(parsed["graph"], validate=True)
                except (PortLabelingError, KeyError, TypeError, ValueError) as error:
                    raise ServiceError(400, f"invalid graph: {error}") from None
                label = request_graph.name or "submitted"
        if entry is None:
            # checked before the cache holds (and the store is searched for)
            # a graph this service refuses to answer about
            _check_size(request_graph)
            with obs_span("cache_lookup"):
                entry = refinement_cache.entry(request_graph, spec=spec)
        graph = entry.graph
        sweep = SweepSpec.make(
            (),
            tasks=parsed["tasks"],
            max_depth=parsed["max_depth"],
            max_states=parsed["max_states"],
        )
        record = evaluate_graph(graph, sweep, label=label, entry=entry)
        indices = {task.value: record[f"psi_{task.value}"] for task in parsed["tasks"]}
        limited = [code for code in record.get("search_limited", "").split(",") if code]
        response: Dict[str, Any] = {
            "graph": label,
            "fingerprint": graph.fingerprint(),
            "n": graph.num_nodes,
            "m": graph.num_edges,
            "max_degree": graph.max_degree,
            "feasible": record["feasible"],
            "indices": indices,
            "search_limited": limited,
            "elapsed_ms": round((time.perf_counter() - started) * 1000.0, 3),
        }
        if parsed["advice"]:
            from ..advice.map_advice import encode_map_advice  # lazy import, heavy layer

            named = request_graph if request_graph is not None else graph
            response["advice"] = {"map": encode_map_advice(named)}
        if delta_status is not None:
            delta_status.apply("evaluated")
            response["delta"] = delta_section
            # volatile by design: a first submission replays, a repeat hits
            # the cache -- the result bytes are identical either way
            response["delta_path"] = list(delta_status.events)
        sp.add_tags({"graph": label, "n": graph.num_nodes, "advice": parsed["advice"]})
        return response


def shard_totals(rows: List[Dict[str, Any]]) -> Dict[str, int]:
    """Fleet totals of :meth:`ElectionService.shard_rows` (``shards`` is
    their count; nothing without shards): what ``/stats`` ``shards`` and
    the ``repro_shard_events`` family of ``/metrics`` report."""
    if not rows:
        return {}
    totals = {"shards": len(rows)}
    for event in ("spawns", "recycles", "crashes", "dispatched"):
        totals[event] = sum(row[event] for row in rows)
    return totals


class ElectionService:
    """The query front end (see the module docstring).

    Parameters
    ----------
    store:
        Optional :class:`~repro.store.ArtifactStore`; attached to the
        process-wide refinement cache (thread backend) or to every shard
        worker's cache (process backend) so queries read and write through
        it.
    workers:
        Size of the bounded compute pool (thread backend); also the default
        shard count of the process backend when ``shards`` is not given.
    default_max_states:
        PPE/CPPE search budget applied when a query does not set one.
    compute_delay:
        Artificial seconds added to every computation, off the event loop.
        Used by the latency benchmark and the coalescing tests to make
        overlap deterministic; leave at ``0`` in production.
    backend:
        ``"thread"`` (default) or ``"process"`` -- see
        :mod:`repro.service.workers`.  If the process backend cannot be set
        up on this platform the service falls back to the thread backend
        with a warning rather than failing to start.
    shards:
        Process-backend worker count (defaults to ``workers``).
    recycle_after:
        Process-backend: retire a shard worker after this many tasks
        (defaults to :data:`repro.service.workers.DEFAULT_RECYCLE_AFTER`).
    hot_tier_bytes:
        When positive and a store is attached, serving is *traffic-shaped*:
        the store's in-process hot tier is enabled with this byte budget
        (repeat fingerprints decode from mmap'd residents instead of
        re-reading disk), and the refinement cache switches to the
        frequency-observing ``"second-touch"`` admission policy for the
        service's lifetime (restored by :meth:`close`).  Shard workers of
        the process backend get both via their bootstrap.  ``0`` (the
        default) keeps the historical cold-path behaviour.
    """

    def __init__(
        self,
        *,
        store: Optional[ArtifactStore] = None,
        workers: int = 4,
        default_max_states: int = 200_000,
        compute_delay: float = 0.0,
        backend: str = "thread",
        shards: Optional[int] = None,
        recycle_after: Optional[int] = None,
        hot_tier_bytes: int = 0,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if backend not in ("thread", "process"):
            raise ValueError(f"unknown backend {backend!r} (choose 'thread' or 'process')")
        from . import workers as worker_backends  # deferred: workers.py imports this module

        self._store = store
        self._workers = workers
        self._default_max_states = default_max_states
        self._compute_delay = compute_delay
        self._closed = False
        hot = hot_tier_bytes if (hot_tier_bytes > 0 and store is not None) else 0
        self._hot_tier_bytes = hot
        self._prior_admission: Optional[str] = None
        if hot:
            store.enable_hot_tier(hot)
        self._backend: worker_backends.ComputeBackend
        if backend == "process":
            try:
                self._backend = worker_backends.ProcessShardBackend(
                    shards=shards if shards is not None else workers,
                    store=store,
                    compute_delay=compute_delay,
                    recycle_after=recycle_after,
                    hot_tier_bytes=hot,
                    cache_admission="second-touch" if hot else None,
                )
            except (ImportError, NotImplementedError, OSError) as error:
                # e.g. a platform without working multiprocessing primitives;
                # degrade to the GIL-bound thread pool instead of not serving
                print(
                    f"repro serve: process backend unavailable ({error}); "
                    f"falling back to the thread backend",
                    file=sys.stderr,
                )
                self._backend = worker_backends.ThreadBackend(
                    workers=workers, compute_delay=compute_delay
                )
        else:
            self._backend = worker_backends.ThreadBackend(
                workers=workers, compute_delay=compute_delay
            )
        if store is not None and self._backend.name == "thread":
            # thread backend computes in this process: back the process-wide
            # cache; shard workers attach their own cache in bootstrap instead
            refinement_cache.attach_store(store)
            if hot:
                self._prior_admission = refinement_cache.set_admission("second-touch")
        self._inflight: Dict[str, asyncio.Future] = {}
        self._counters = {
            "requests": 0,
            "queries": 0,
            "coalesced": 0,
            "computed": 0,
            "errors": 0,
        }

    # ------------------------------------------------------------------ #
    @property
    def store(self) -> Optional[ArtifactStore]:
        return self._store

    @property
    def workers(self) -> int:
        return self._workers

    @property
    def hot_tier_bytes(self) -> int:
        """The hot-tier byte budget serving was configured with (0 = cold)."""
        return self._hot_tier_bytes

    @property
    def backend(self) -> str:
        """The active compute backend name (``"thread"`` or ``"process"``)."""
        return self._backend.name

    @property
    def concurrency(self) -> int:
        """How many computations can genuinely overlap on the backend."""
        return self._backend.concurrency

    @property
    def in_flight(self) -> int:
        """Coalescing futures currently unresolved (for /metrics)."""
        return len(self._inflight)

    def counter(self, name: str) -> int:
        """One service counter by name (for /metrics gauge callbacks)."""
        return self._counters[name]

    def queue_depth(self) -> int:
        """Backend computations accepted but not yet running (for /metrics)."""
        return self._backend.queue_depth()

    def counters(self) -> Snapshot:
        """Cache/search/store counters of wherever the computing happens.

        The one source of the ``cache``/``search``/``store`` sections of
        ``/stats`` and the ``repro_search_events``/``repro_store_events``
        families of ``/metrics``; never round-trips a worker pipe (see
        :class:`~repro.service.workers.ComputeBackend`).  Point reads only:
        ``/stats`` asks the backend for the scanned ``live_bytes`` itself.
        """
        return self._backend.counters()

    def shard_rows(self) -> List[Dict[str, Any]]:
        """Per-shard rows (lifecycle, jobs, busy seconds, queue depth); the
        thread backend has no shards and reports an empty list."""
        return self._backend.shard_rows()

    def count_request(self) -> None:
        """Tally one HTTP request (any endpoint); called by the server."""
        self._counters["requests"] += 1

    def close(self) -> None:
        """Shut the compute backend down and detach this service's store.

        Idempotent and deterministic: the thread pool is joined (queued
        work cancelled), shard worker processes are asked to exit and then
        joined/terminated, so ``repro serve`` exits without lingering
        non-daemon threads or zombie workers.  The store attachment lives on
        the process-wide refinement cache, so leaving it behind would make
        later, unrelated work in this process silently read from and
        persist into this service's directory.
        """
        if self._closed:
            return
        self._closed = True
        self._backend.close()
        if self._prior_admission is not None:
            refinement_cache.set_admission(self._prior_admission)
            self._prior_admission = None
        if self._store is not None:
            # release the hot tier's mapped buffers; already-decoded records
            # stay valid (decode copies out of the mapping) and the store
            # itself remains usable cold
            self._store.close()
            if refinement_cache.store is self._store:
                refinement_cache.attach_store(None)

    # ------------------------------------------------------------------ #
    # /election
    # ------------------------------------------------------------------ #
    async def query(self, payload: Any) -> Dict[str, Any]:
        """Answer one election query, coalescing identical in-flight ones."""
        self._counters["queries"] += 1
        parsed, key, route_key = self._parse(payload)
        existing = self._inflight.get(key)
        if existing is not None:
            self._counters["coalesced"] += 1
            with obs_span("coalesce_wait"):
                status, value = await existing
            if status == "error":
                raise value
            return dict(value, coalesced=True)
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._inflight[key] = future
        try:
            with obs_span("compute", tags={"backend": self._backend.name}):
                result = await self._backend.submit(route_key, parsed)
        except Exception as error:
            self._counters["errors"] += 1
            future.set_result(("error", error))
            raise
        except BaseException:
            # cancellation (e.g. a batch item whose client disconnected):
            # resolve the coalescing future so drafting waiters get a clean
            # error instead of hanging on a future nobody will complete
            future.set_result(
                ("error", ServiceError(503, "computation cancelled"))
            )
            raise
        else:
            self._counters["computed"] += 1
            future.set_result(("ok", result))
            return dict(result, coalesced=False)
        finally:
            del self._inflight[key]

    def _parse(self, payload: Any) -> Tuple[Dict[str, Any], str, str]:
        """Validate a query body; returns (parsed fields, coalescing key, route key).

        Parsing is cheap (no graph is built here): the heavy work -- graph
        construction, validation, refinement, searches -- happens on the
        compute backend.  The coalescing key digests the canonical JSON of
        every field that determines the answer; the route key digests only
        the graph-identifying part (``graph``/``spec``), so the process
        backend sends *all* queries about one submitted graph -- whatever
        their task/budget parameters -- to the same shard, whose cache
        already holds that graph's refinement.
        """
        if not isinstance(payload, dict):
            raise ServiceError(400, "request body must be a JSON object")
        graph_dict = payload.get("graph")
        spec_dict = payload.get("spec")
        base_ref = payload.get("base")
        delta_ops = payload.get("delta")
        given = sum(1 for value in (graph_dict, spec_dict, base_ref) if value is not None)
        if given != 1:
            raise ServiceError(400, "provide exactly one of 'graph', 'spec' or 'base'")
        if base_ref is not None:
            if isinstance(base_ref, dict):
                if "kind" not in base_ref:
                    raise ServiceError(400, "'base' spec must be an object with a 'kind'")
            elif not isinstance(base_ref, str):
                raise ServiceError(
                    400, "'base' must be a generator spec object or a fingerprint string"
                )
            if not isinstance(delta_ops, list) or not delta_ops:
                raise ServiceError(400, "'base' requires a non-empty 'delta' op list")
        elif delta_ops is not None:
            raise ServiceError(400, "'delta' requires a 'base' to apply to")
        if spec_dict is not None:
            if not isinstance(spec_dict, dict) or "kind" not in spec_dict:
                raise ServiceError(400, "'spec' must be an object with a 'kind'")
        elif graph_dict is not None and not isinstance(graph_dict, dict):
            raise ServiceError(400, "'graph' must be the adjacency dict format")
        task_codes = payload.get("tasks")
        if task_codes is None:
            tasks = list(Task.ordered())
        else:
            try:
                tasks = [Task(code) for code in task_codes]
            except (ValueError, TypeError):
                raise ServiceError(
                    400,
                    f"unknown task in {task_codes!r} "
                    f"(expected codes among {[t.value for t in Task.ordered()]})",
                ) from None
        max_depth = payload.get("max_depth")
        if max_depth is not None and (not isinstance(max_depth, int) or max_depth < 0):
            raise ServiceError(400, "'max_depth' must be a non-negative integer")
        max_states = payload.get("max_states", self._default_max_states)
        if not isinstance(max_states, int) or max_states < 1:
            raise ServiceError(400, "'max_states' must be a positive integer")
        include_advice = bool(payload.get("advice", False))
        parsed = {
            "graph": graph_dict,
            "spec": spec_dict,
            "base": base_ref,
            "delta": delta_ops,
            "tasks": tasks,
            "max_depth": max_depth,
            "max_states": max_states,
            "advice": include_advice,
        }
        canonical = json.dumps(
            {
                "graph": graph_dict,
                "spec": spec_dict,
                "base": base_ref,
                "delta": delta_ops,
                "tasks": [task.value for task in tasks],
                "max_depth": max_depth,
                "max_states": max_states,
                "advice": include_advice,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        key = hashlib.blake2b(canonical.encode("utf-8"), digest_size=16).hexdigest()
        # delta items route on the BASE alone: every mutation of one base
        # lands on the shard whose cache holds that base (and its earlier
        # mutations) warm
        route_canonical = json.dumps(
            {"graph": graph_dict, "spec": spec_dict, "base": base_ref},
            sort_keys=True,
            separators=(",", ":"),
        )
        route_key = hashlib.blake2b(
            route_canonical.encode("utf-8"), digest_size=16
        ).hexdigest()
        return parsed, key, route_key

    # ------------------------------------------------------------------ #
    # /stats
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, Any]:
        """Counters of every layer: service, backend, cache, store, searches.

        ``cache``, ``search`` and ``store`` are :meth:`counters`, the same
        numbers ``/metrics`` renders -- so invariants like "a store-warm
        replay performs zero refinement passes" are checked against the
        same numbers regardless of backend.
        """
        from ..kernel import active_backend

        counters = self._backend.counters(live_bytes=True)
        payload: Dict[str, Any] = {
            "service": dict(
                self._counters,
                in_flight=len(self._inflight),
                workers=self._workers,
                backend=self._backend.name,
                concurrency=self._backend.concurrency,
                compute_delay=self._compute_delay,
                kernel_backend=active_backend(),
                hot_tier_bytes=self._hot_tier_bytes,
            ),
            "cache": counters["cache"],
            "search": counters["search"],
        }
        rows = self.shard_rows()
        if rows:
            totals = shard_totals(rows)
            payload["shards"] = {
                "count": totals["shards"],
                "recycle_after": self._backend.recycle_after,
                "spawns": totals["spawns"],
                "recycles": totals["recycles"],
                "crashes": totals["crashes"],
                # the queue depths are /metrics gauges only
                "per_shard": [
                    {key: value for key, value in row.items() if key != "queue_depth"}
                    for row in rows
                ],
            }
        if self._store is not None:
            # the record count is a gauge of the shared manifest, not a counter
            payload["store"] = dict(counters["store"], records=self._store.stats()["records"])
        return payload
