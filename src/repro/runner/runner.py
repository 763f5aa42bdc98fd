"""The batched experiment runner: one sweep in, one deterministic table out.

The runner expands a :class:`~repro.runner.spec.SweepSpec` into one *job per
graph*, evaluates every job (feasibility, the requested ψ_Z indices, optional
view-class profiles), and assembles the rows -- in spec order, regardless of
completion order -- into a :class:`~repro.runner.results.ResultTable`.

Within a job all queries share a single memoised
:class:`~repro.views.refinement.ViewRefinement` obtained from the
process-wide :data:`~repro.runner.cache.refinement_cache`, so a graph that
appears in several sweeps (or several times in one sweep) is refined at most
once per process.  With ``workers > 1`` jobs fan out over a
``multiprocessing`` pool in deterministic chunks; each worker process keeps
its own refinement cache, and because job evaluation is pure, parallel and
serial runs of the same spec produce byte-identical tables.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterator, List, Optional, Tuple

import os

from ..core.election_index import SearchLimitExceeded, election_index
from ..core.feasibility import is_feasible
from ..kernel.backend import BACKEND_ENV_VAR
from ..obs import Snapshot, counter_snapshot
from ..obs import span as obs_span
from .bootstrap import attach_store_path, bootstrap_worker
from .cache import refinement_cache
from .results import ResultTable
from .spec import GraphSpec, SweepSpec

__all__ = [
    "ExperimentRunner",
    "RunReport",
    "attach_store_path",
    "evaluate_graph",
    "evaluate_graph_spec",
    "run_sweep",
]


def evaluate_graph(
    graph, sweep: SweepSpec, *, label: Optional[str] = None, entry=None
) -> Dict[str, Any]:
    """Evaluate one built graph into a flat result record.

    Fetches the graph's entry from the process-wide refinement cache (or
    takes ``entry``, the graph's entry the caller already resolved, without
    a second lookup) and answers every requested query against that one
    refinement.  Feasibility
    and the ψ_Z values (keyed by their search parameters) are memoised on
    the entry, so replaying a sweep skips the PPE/CPPE joint searches as
    well as the refinement passes; with a store attached the entry itself
    may arrive warm from disk, and the computed outcome is written through
    at the end.  A PPE or CPPE search that exceeds ``sweep.max_states``
    records ``None`` for the index and lists the task under
    ``search_limited`` instead of aborting the whole sweep.
    """
    with obs_span("evaluate_graph") as profile_span:
        return _evaluate_graph_traced(graph, sweep, label, entry, profile_span)


def _span_tags(before: Snapshot, after: Snapshot) -> Dict[str, int]:
    """The ``evaluate_graph`` span tags: changes of eleven snapshot counters.

    Spelled out rather than looped: this runs on every traced evaluation.
    """
    search, search0 = after["search"], before["search"]
    cache, cache0 = after["cache"], before["cache"]
    store, store0 = after["store"], before["store"]
    return {
        "searches": search["searches"] - search0["searches"],
        "search_states": search["states"] - search0["states"],
        "search_cells": search["cells"] - search0["cells"],
        "limit_hits": search["limit_hits"] - search0["limit_hits"],
        "cache_hits": cache["hits"] - cache0["hits"],
        "cache_misses": cache["misses"] - cache0["misses"],
        "refinement_passes": cache["refinement_passes"] - cache0["refinement_passes"],
        "store_hits": cache["store_hits"] - cache0["store_hits"],
        "store_misses": cache["store_misses"] - cache0["store_misses"],
        "store_bytes_read": store["bytes_read"] - store0["bytes_read"],
        "store_bytes_written": store["bytes_written"] - store0["bytes_written"],
    }


def _evaluate_graph_traced(graph, sweep: SweepSpec, label, entry, profile_span) -> Dict[str, Any]:
    if profile_span.recording:
        before = counter_snapshot(refinement_cache, hot_tier=False)
    if entry is None:
        entry = refinement_cache.entry(graph)
    refinement = entry.refinement
    memo_size_before = len(entry.memo)
    feasible = entry.memo.get(("feasible",))
    if feasible is None:
        feasible = is_feasible(graph, refinement=refinement)
        entry.memo[("feasible",)] = feasible
    record: Dict[str, Any] = {
        "graph": graph.name if label is None else label,
        "n": graph.num_nodes,
        "m": graph.num_edges,
        "max_degree": graph.max_degree,
        "feasible": feasible,
    }
    limited: List[str] = []
    for task in sweep.tasks:
        memo_key = ("psi", task.value, sweep.max_depth, sweep.max_states)
        outcome = entry.memo.get(memo_key)
        if outcome is None:
            try:
                outcome = ("ok", election_index(
                    task,
                    graph,
                    refinement=refinement,
                    max_depth=sweep.max_depth,
                    max_states=sweep.max_states,
                ))
            except SearchLimitExceeded:
                outcome = ("limited", None)
            entry.memo[memo_key] = outcome
        status, value = outcome
        if status == "limited":
            limited.append(task.value)
        record[f"psi_{task.value}"] = value
    for depth in sweep.profile_depths:
        record[f"classes_at_{depth}"] = refinement.num_classes(depth)
        record[f"unique_at_{depth}"] = len(refinement.unique_nodes(depth))
    if sweep.tasks or sweep.profile_depths:
        record["search_limited"] = ",".join(limited)
    if refinement_cache.store is not None and len(entry.memo) > memo_size_before:
        # write through only when this evaluation computed something new --
        # a fully warm replay (every answer memoised, possibly straight from
        # the store) skips the record re-encode and disk compare entirely
        refinement_cache.persist(graph)
    if profile_span.recording:
        tags = _span_tags(before, counter_snapshot(refinement_cache, hot_tier=False))
        tags["graph"] = record["graph"]
        tags["n"] = graph.num_nodes
        profile_span.add_tags(tags)
    return record


def evaluate_graph_spec(spec: GraphSpec, sweep: SweepSpec) -> Dict[str, Any]:
    """Evaluate one graph of a sweep into a flat result record (see :func:`evaluate_graph`)."""
    return evaluate_graph(spec.build(), sweep, label=spec.label)


def _evaluate_indexed(job: Tuple[int, GraphSpec, SweepSpec]) -> Tuple[int, Dict[str, Any]]:
    index, spec, sweep = job
    return index, evaluate_graph_spec(spec, sweep)


def _evaluate_guarded(
    job: Tuple[int, GraphSpec, SweepSpec]
) -> Tuple[int, str, Any]:
    """Streaming job wrapper: a bad graph fails its *item*, not the sweep.

    Batch sweeps mix arbitrary client-supplied specs, where one invalid
    parameter set (caught as ``ValueError`` by the builders) must surface as
    a per-item error record while the rest of the stream proceeds.
    """
    index, spec, sweep = job
    try:
        return index, "ok", evaluate_graph_spec(spec, sweep)
    except ValueError as error:
        return index, "error", f"{spec.label}: {error}"


@dataclass(frozen=True)
class RunReport:
    """A finished sweep: the table plus execution metadata.

    Only :attr:`table` is deterministic; :attr:`elapsed` and
    :attr:`cache_stats` describe this particular execution.
    ``cache_stats`` is the ``cache`` section of
    :func:`repro.obs.counter_snapshot` (point reads: no ``live_bytes``).
    For parallel runs it reflects the parent process only -- worker caches
    live and die with their processes.
    """

    table: ResultTable
    elapsed: float
    workers: int
    cache_stats: Dict[str, int]
    #: Stats of the attached artifact store, when the runner was given one
    #: (parent-process handle only, like ``cache_stats``).
    store_stats: Optional[Dict[str, int]] = None


class ExperimentRunner:
    """Runs :class:`SweepSpec` sweeps serially or across worker processes.

    Parameters
    ----------
    workers:
        Number of worker processes; ``1`` (the default) evaluates in-process
        and is what populates the long-lived refinement cache of the calling
        process.
    chunk_size:
        Jobs handed to a worker at a time.  Defaults to spreading the jobs
        about four chunks per worker, which keeps scheduling balanced without
        drowning small sweeps in IPC.
    store_path:
        Directory of a persistent :class:`~repro.store.store.ArtifactStore`.
        When given, the parent process *and* every worker process attach the
        store to their refinement cache: jobs warm-start from records any
        earlier process (or an earlier job of this very sweep) persisted,
        and write their own results through, so the fan-out exchanges
        fingerprint-addressed artifacts on disk instead of recomputing per
        process.
    """

    def __init__(
        self,
        *,
        workers: int = 1,
        chunk_size: Optional[int] = None,
        store_path: Optional[str] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")
        self._workers = workers
        self._chunk_size = chunk_size
        self._store_path = store_path

    @property
    def workers(self) -> int:
        return self._workers

    def _resolve_chunk_size(self, num_jobs: int) -> int:
        if self._chunk_size is not None:
            return self._chunk_size
        return max(1, num_jobs // (self._workers * 4))

    def _worker_initargs(self) -> Tuple[Optional[str], str]:
        """Arguments for :func:`bootstrap_worker` in each pool worker.

        Forwards the store path and the parent's kernel-backend request (the
        request -- e.g. ``auto`` -- not its resolution, so a worker without
        numpy still falls back instead of failing).
        """
        return (self._store_path, os.environ.get(BACKEND_ENV_VAR, "auto"))

    def run(self, sweep: SweepSpec) -> RunReport:
        """Evaluate the sweep and return the (deterministically ordered) report."""
        if self._store_path is not None:
            attach_store_path(self._store_path)
        # each job carries only the evaluation settings, not the whole graph
        # list -- otherwise a G-graph parallel sweep pickles O(G^2) spec data
        settings = replace(sweep, graphs=())
        jobs = [(index, spec, settings) for index, spec in enumerate(sweep.graphs)]
        started = time.perf_counter()
        if self._workers == 1 or len(jobs) <= 1:
            indexed = [_evaluate_indexed(job) for job in jobs]
        else:
            chunk = self._resolve_chunk_size(len(jobs))
            with multiprocessing.Pool(
                processes=self._workers,
                initializer=bootstrap_worker,
                initargs=self._worker_initargs(),
            ) as pool:
                indexed = pool.map(_evaluate_indexed, jobs, chunksize=chunk)
        indexed.sort(key=lambda pair: pair[0])
        table = ResultTable.from_records([record for _index, record in indexed])
        elapsed = time.perf_counter() - started
        store = refinement_cache.store
        return RunReport(
            table=table,
            elapsed=elapsed,
            workers=self._workers,
            cache_stats=counter_snapshot(refinement_cache)["cache"],
            store_stats=store.stats() if store is not None else None,
        )

    def stream(self, sweep: SweepSpec) -> Iterator[Tuple[int, str, Any]]:
        """Evaluate the sweep lazily, yielding ``(index, status, payload)``.

        Items arrive in spec order as they complete -- serially one by one,
        with ``workers > 1`` through ``pool.imap`` (order-preserving, so the
        stream is deterministic either way).  ``status`` is ``"ok"`` with the
        flat result record, or ``"error"`` with a message for a graph whose
        construction failed; unlike :meth:`run`, a bad item does not abort
        the sweep.  Store write-through works exactly as in :meth:`run`.
        This is the fan-out behind the batch service's declarative sweeps
        and the ``sweep`` / ``bench --batch`` CLI streaming modes.
        """
        if self._store_path is not None:
            attach_store_path(self._store_path)
        settings = replace(sweep, graphs=())
        jobs = [(index, spec, settings) for index, spec in enumerate(sweep.graphs)]
        if self._workers == 1 or len(jobs) <= 1:
            for job in jobs:
                yield _evaluate_guarded(job)
            return
        chunk = self._resolve_chunk_size(len(jobs))
        with multiprocessing.Pool(
            processes=self._workers,
            initializer=bootstrap_worker,
            initargs=self._worker_initargs(),
        ) as pool:
            for item in pool.imap(_evaluate_guarded, jobs, chunksize=chunk):
                yield item


def run_sweep(
    sweep: SweepSpec,
    *,
    workers: int = 1,
    chunk_size: Optional[int] = None,
    store_path: Optional[str] = None,
) -> RunReport:
    """Convenience wrapper: ``ExperimentRunner(workers=...).run(sweep)``."""
    return ExperimentRunner(
        workers=workers, chunk_size=chunk_size, store_path=store_path
    ).run(sweep)
