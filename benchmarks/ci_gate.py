"""CI micro-benchmark gate: certify that warm replays do zero fresh work.

Runs a small fixed sweep twice through the experiment runner and writes
``BENCH_PR2.json`` (cold/warm wall-time, refinement passes, joint-search
states).  The gate **fails** (exit code 1) if the warm replay performed any
refinement passes — the contract of the kernel-object cache: replaying a
sweep must be served entirely from memoised partitions, block-cut trees and
ψ memos.  Byte-identical tables across the two runs are asserted as well.

Since PR 3 the gate also certifies the *persistent* layer: the parent
flushes its cache into a throwaway artifact store and spawns a genuinely
cold child process (``--replay``) pointed at it.  The child must answer the
same sweep with **zero refinement passes and zero fresh search states**,
served entirely from store records, and produce a byte-identical table.

Since PR 4 the gate additionally certifies the *batch/streaming* layer over
the wire: a 200-graph mixed-corpus sweep streamed through ``POST
/elections`` must be byte-identical, item by item, to sequential ``POST
/election`` calls (modulo the declared volatile timing fields, which the
stream omits), and a store-warm replay of the same batch by a fresh service
must perform **zero refinement passes**.

Since PR 7 the gate certifies the *kernel backend* too (skipped cleanly when
numpy is absent): the numpy backend must produce byte-identical result
tables and canonical colour tables, replay a numpy-written store in an
env-forced numpy child with zero refinement passes, and beat the python
backend's cold refinement by ≥ 3× on a dedicated large workload.

Usage (as in ``.github/workflows/ci.yml``)::

    PYTHONPATH=src python benchmarks/ci_gate.py [output.json]
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

from repro.core import Task, reset_search_statistics, search_statistics
from repro.kernel import refinement_pass_count
from repro.runner import (
    ExperimentRunner,
    GraphSpec,
    SweepSpec,
    attach_store_path,
    refinement_cache,
)

#: The fixed gate sweep: one graph per hot path — a G_{Δ,k} member for the
#: refinement and block-cut paths, small mixed graphs for the PPE/CPPE joint
#: searches.  (U_{Δ,k} members are deliberately absent: their exact CPPE
#: searches take minutes and belong to the benchmark record, not a CI gate.)
GATE_SWEEP = SweepSpec.make(
    [
        GraphSpec.make("gdk", delta=4, k=1, index=3),
        GraphSpec.make("asymmetric-cycle", n=7),
        GraphSpec.make("star", leaves=4),
        GraphSpec.make("random", n=9, extra_edges=4, seed=2),
    ],
    tasks=Task.ordered(),
    profile_depths=(1,),
)


def _measure(runner: ExperimentRunner):
    # refinement passes of every engine in the process, not only of the
    # engines the cache holds: a refinement of a throwaway graph counts too
    passes_before = refinement_pass_count()
    cache_before = refinement_cache.stats()
    search_before = search_statistics()
    started = time.perf_counter()
    report = runner.run(GATE_SWEEP)
    elapsed = time.perf_counter() - started
    cache_after = refinement_cache.stats()
    search_after = search_statistics()
    return report, {
        "wall_time_s": round(elapsed, 6),
        "refinement_passes": refinement_pass_count() - passes_before,
        "search_states": search_after["states"] - search_before["states"],
        "search_cells": search_after["cells"] - search_before["cells"],
        "cache_hits": cache_after["hits"] - cache_before["hits"],
        "cache_misses": cache_after["misses"] - cache_before["misses"],
    }


def _replay(store_dir: str) -> int:
    """Child entry point: replay the gate sweep in a cold process, store-backed."""
    refinement_cache.clear()
    reset_search_statistics()
    report, metrics = _measure(ExperimentRunner(store_path=store_dir))
    print(
        json.dumps(
            {
                "metrics": metrics,
                "store_hits": report.cache_stats["store_hits"],
                "store_misses": report.cache_stats["store_misses"],
                "table_json": report.table.to_json(),
            }
        )
    )
    return 0


def _store_warm_replay(kernel_backend: str = None) -> dict:
    """Flush the warm cache to a throwaway store and replay it in a cold child.

    ``kernel_backend`` forces ``REPRO_KERNEL_BACKEND`` in the child process,
    so the store-warm zero-refinement contract can be certified under either
    kernel backend explicitly.
    """
    from repro.kernel import BACKEND_ENV_VAR

    child_env = dict(os.environ)
    if kernel_backend is not None:
        child_env[BACKEND_ENV_VAR] = kernel_backend
    store_dir = tempfile.mkdtemp(prefix="repro-gate-store-")
    try:
        attach_store_path(store_dir)
        flushed = refinement_cache.flush_to_store()
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--replay", store_dir],
            capture_output=True,
            text=True,
            cwd=os.getcwd(),
            env=child_env,
            timeout=600,
        )
        if child.returncode != 0:
            raise RuntimeError(
                f"store-warm replay child failed (exit {child.returncode}):\n{child.stderr}"
            )
        replay = json.loads(child.stdout)
        replay["records_flushed"] = flushed
        return replay
    finally:
        refinement_cache.attach_store(None)
        shutil.rmtree(store_dir, ignore_errors=True)


#: The acceptance batch: a 200-graph mixed-corpus sweep (every scenario
#: family, feasible and infeasible alike), expanded server-side.
BATCH_SWEEP = {"corpus": "mixed", "count": 200, "seed": 4}

#: Shards of the process-backend leg (matches the CI runner's cores).
PROCESS_SHARDS = 4


def _batch_gate(failures) -> dict:
    """Certify the batch endpoint: byte-identity and store-warm zero-refinement.

    Three legs over one artifact store: a cold thread-backend stream whose
    items must match sequential ``POST /election`` calls; a store-warm
    thread-backend replay with zero refinement passes; and a store-warm
    replay through the sharded **process** backend, which must return the
    byte-identical NDJSON stream and report zero refinement passes across
    all shard workers (aggregated ``/stats``).
    """
    from repro.service import ElectionService, deterministic_response
    from repro.service.batch import expand_sweep
    from repro.store import ArtifactStore
    from service_harness import ThreadedElectionServer

    def strip_trace(lines):
        # trace ids are per-request by design; byte-identity claims exclude them
        return [
            {key: value for key, value in line.items() if key != "trace_id"}
            for line in lines
        ]

    store_dir = tempfile.mkdtemp(prefix="repro-gate-batch-")
    refinement_cache.clear()
    reset_search_statistics()
    result: dict = {"items": BATCH_SWEEP["count"]}
    try:
        # cold: stream the whole corpus through POST /elections, store-backed
        with ThreadedElectionServer(
            ElectionService(store=ArtifactStore(store_dir), workers=4)
        ) as running:
            started = time.perf_counter()
            lines, _gaps, _wall = running.post_batch({"sweep": BATCH_SWEEP})
            result["cold_stream_s"] = round(time.perf_counter() - started, 6)
            items = strip_trace(lines[1:-1])
            trailer = lines[-1]
            if trailer.get("ok") != BATCH_SWEEP["count"] or trailer.get("errors"):
                failures.append(f"batch gate: unexpected trailer {trailer}")
            # byte-identity: every streamed item vs a sequential single call
            mismatches = 0
            for payload, line in zip(expand_sweep(BATCH_SWEEP), items):
                single = deterministic_response(running.post("/election", payload))
                streamed = {
                    key: value
                    for key, value in line.items()
                    if key not in ("index", "status", "trace_id")
                }
                if json.dumps(streamed, sort_keys=True) != json.dumps(single, sort_keys=True):
                    mismatches += 1
            result["byte_mismatches"] = mismatches
            if mismatches:
                failures.append(
                    f"batch gate: {mismatches} streamed items differ from sequential calls"
                )
        # store-warm replay: a fresh service (cold cache, same store) must
        # answer the identical batch without a single refinement pass
        refinement_cache.clear()
        reset_search_statistics()
        with ThreadedElectionServer(
            ElectionService(store=ArtifactStore(store_dir), workers=4)
        ) as running:
            started = time.perf_counter()
            replay_lines, _gaps, _wall = running.post_batch({"sweep": BATCH_SWEEP})
            result["warm_stream_s"] = round(time.perf_counter() - started, 6)
            stats = running.get("/stats")
        replay_trailer = replay_lines[-1]
        result["warm_refinement_passes"] = stats["cache"]["refinement_passes"]
        result["warm_store_hits"] = stats["cache"]["store_hits"]
        if replay_trailer.get("ok") != BATCH_SWEEP["count"]:
            failures.append(f"batch gate: warm replay trailer {replay_trailer}")
        if result["warm_refinement_passes"] != 0:
            failures.append(
                f"batch gate: store-warm batch replay performed "
                f"{result['warm_refinement_passes']} refinement passes (expected 0)"
            )
        if strip_trace(replay_lines[1:-1]) != items:
            failures.append("batch gate: warm replay stream differs from the cold stream")
        # process-backend replay: the same batch through the sharded worker
        # processes must be byte-identical and refinement-free (store-warm)
        refinement_cache.clear()
        reset_search_statistics()
        with ThreadedElectionServer(
            ElectionService(
                store=ArtifactStore(store_dir),
                workers=4,
                backend="process",
                shards=PROCESS_SHARDS,
            )
        ) as running:
            started = time.perf_counter()
            process_lines, _gaps, _wall = running.post_batch({"sweep": BATCH_SWEEP})
            result["process_stream_s"] = round(time.perf_counter() - started, 6)
            stats = running.get("/stats")
        result["process_shards"] = PROCESS_SHARDS
        result["process_refinement_passes"] = stats["cache"]["refinement_passes"]
        result["process_store_hits"] = stats["cache"]["store_hits"]
        if stats["service"]["backend"] != "process":
            # no "shards" section exists after a fallback; report and move on
            failures.append("batch gate: process backend fell back to thread")
        elif stats["shards"]["crashes"]:
            failures.append(
                f"batch gate: {stats['shards']['crashes']} shard worker crashes"
            )
        if process_lines[-1].get("ok") != BATCH_SWEEP["count"]:
            failures.append(f"batch gate: process replay trailer {process_lines[-1]}")
        if strip_trace(process_lines[1:-1]) != items:
            failures.append(
                "batch gate: process-backend stream differs from the thread-backend stream"
            )
        if result["process_refinement_passes"] != 0:
            failures.append(
                f"batch gate: store-warm process-backend replay performed "
                f"{result['process_refinement_passes']} refinement passes (expected 0)"
            )
    finally:
        refinement_cache.attach_store(None)
        refinement_cache.clear()
        shutil.rmtree(store_dir, ignore_errors=True)
    return result


#: The kernel-backend gate workload: big enough that vectorisation wins by a
#: wide margin, small enough for CI (the tiny GATE_SWEEP graphs would measure
#: per-call overhead, where numpy is *slower* by design).
KERNEL_GATE_NODES = 12_000
KERNEL_GATE_DEPTH = 6
#: Required cold-refinement speedup of the numpy backend on that workload.
KERNEL_GATE_MIN_SPEEDUP = 3.0


def _kernel_cold_refinement(csr, backend: str):
    """Best-of-two cold refinement timing under ``backend``; returns (engine, seconds)."""
    from repro.kernel import make_refinement, use_backend

    best = None
    engine = None
    with use_backend(backend):
        for _ in range(2):
            started = time.perf_counter()
            engine = make_refinement(csr)
            engine.ensure_depth(KERNEL_GATE_DEPTH)
            elapsed = time.perf_counter() - started
            best = elapsed if best is None else min(best, elapsed)
    return engine, best


def _kernel_backend_gate(failures) -> dict:
    """The numpy-backend leg: byte-identity, store-warm zero-refinement, speed.

    Three certificates, skipped gracefully when numpy is absent (that CI leg
    exercises the fallback instead):

    * the full gate sweep under the numpy backend produces a byte-identical
      result table to the python backend, and a store written by a
      numpy-backend process replays in an env-forced numpy child with zero
      refinement passes;
    * on the dedicated kernel workload, cold canonical tables agree exactly;
    * the numpy cold refinement is at least ``KERNEL_GATE_MIN_SPEEDUP``×
      faster than the python one on that workload.
    """
    from repro.kernel import numpy_available, use_backend

    result: dict = {"numpy_available": numpy_available()}
    if not numpy_available():
        result["skipped"] = "numpy not installed: python fallback is the only backend"
        return result
    from repro.portgraph.generators import random_connected_graph

    # cold refinement speed + table identity on the kernel workload
    graph = random_connected_graph(
        KERNEL_GATE_NODES, extra_edges=KERNEL_GATE_NODES, seed=7
    )
    csr = graph.csr()
    python_engine, python_s = _kernel_cold_refinement(csr, "python")
    numpy_engine, numpy_s = _kernel_cold_refinement(csr, "numpy")
    speedup = python_s / numpy_s if numpy_s > 0 else float("inf")
    result["workload"] = (
        f"random_connected_graph(n={KERNEL_GATE_NODES}, "
        f"extra_edges={KERNEL_GATE_NODES}, seed=7), ensure_depth({KERNEL_GATE_DEPTH})"
    )
    result["python_cold_s"] = round(python_s, 6)
    result["numpy_cold_s"] = round(numpy_s, 6)
    result["speedup"] = round(speedup, 2)
    result["workload_tables_identical"] = (
        python_engine.canonical_tables() == numpy_engine.canonical_tables()
    )
    if not result["workload_tables_identical"]:
        failures.append("kernel gate: numpy and python canonical tables differ")
    if speedup < KERNEL_GATE_MIN_SPEEDUP:
        failures.append(
            f"kernel gate: numpy cold refinement only {speedup:.2f}x faster than "
            f"python (required ≥ {KERNEL_GATE_MIN_SPEEDUP}x)"
        )

    # full gate sweep under each backend: byte-identical tables, and a
    # store-warm replay by an env-forced numpy child with zero refinement
    sweep_tables = {}
    for backend in ("python", "numpy"):
        with use_backend(backend):
            refinement_cache.clear()
            reset_search_statistics()
            report, _metrics = _measure(ExperimentRunner())
            sweep_tables[backend] = report.table.to_json()
            if backend == "numpy":
                replay = _store_warm_replay(kernel_backend="numpy")
    refinement_cache.clear()
    result["sweep_tables_identical"] = sweep_tables["python"] == sweep_tables["numpy"]
    if not result["sweep_tables_identical"]:
        failures.append("kernel gate: gate-sweep tables differ between backends")
    result["numpy_store_warm"] = {
        "records_flushed": replay["records_flushed"],
        "store_hits": replay["store_hits"],
        **replay["metrics"],
    }
    if replay["metrics"]["refinement_passes"] != 0:
        failures.append(
            f"kernel gate: numpy store-warm replay performed "
            f"{replay['metrics']['refinement_passes']} refinement passes (expected 0)"
        )
    if replay["store_hits"] != len(GATE_SWEEP.graphs):
        failures.append(
            f"kernel gate: numpy store-warm replay hit the store "
            f"{replay['store_hits']} times (expected {len(GATE_SWEEP.graphs)})"
        )
    if replay["table_json"] != sweep_tables["numpy"]:
        failures.append("kernel gate: numpy store-warm table differs from the cold table")
    return result


def main(argv) -> int:
    if len(argv) > 2 and argv[1] == "--replay":
        return _replay(argv[2])
    output_path = argv[1] if len(argv) > 1 else "BENCH_PR2.json"
    refinement_cache.clear()
    reset_search_statistics()
    runner = ExperimentRunner()
    cold_report, cold = _measure(runner)
    warm_report, warm = _measure(runner)
    store_warm = _store_warm_replay()
    failures = []
    batch = _batch_gate(failures)
    kernel_backends = _kernel_backend_gate(failures)
    payload = {
        "batch": batch,
        "kernel_backends": kernel_backends,
        "sweep_graphs": [spec.label for spec in GATE_SWEEP.graphs],
        "cold": cold,
        "warm": warm,
        "store_warm": {
            "records_flushed": store_warm["records_flushed"],
            "store_hits": store_warm["store_hits"],
            "store_misses": store_warm["store_misses"],
            **store_warm["metrics"],
        },
        "tables_identical": cold_report.table.to_json() == warm_report.table.to_json(),
        "store_warm_table_identical": cold_report.table.to_json()
        == store_warm["table_json"],
    }
    with open(output_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps(payload, indent=2, sort_keys=True))

    if warm["refinement_passes"] != 0:
        failures.append(
            f"warm replay performed {warm['refinement_passes']} refinement passes (expected 0)"
        )
    if warm["search_states"] != 0:
        failures.append(
            f"warm replay stored {warm['search_states']} fresh search states (expected 0)"
        )
    if not payload["tables_identical"]:
        failures.append("cold and warm tables differ")
    if cold["refinement_passes"] == 0:
        failures.append("cold run performed no refinement passes: the gate measured nothing")
    store_warm_out = payload["store_warm"]
    if store_warm_out["refinement_passes"] != 0:
        failures.append(
            f"store-warm cold process performed {store_warm_out['refinement_passes']} "
            f"refinement passes (expected 0: every graph must warm-start from the store)"
        )
    if store_warm_out["search_states"] != 0:
        failures.append(
            f"store-warm cold process stored {store_warm_out['search_states']} "
            f"fresh search states (expected 0)"
        )
    if store_warm_out["store_hits"] != len(GATE_SWEEP.graphs):
        failures.append(
            f"store-warm cold process hit the store {store_warm_out['store_hits']} times "
            f"(expected {len(GATE_SWEEP.graphs)})"
        )
    if not payload["store_warm_table_identical"]:
        failures.append("store-warm table differs from the cold table")
    for failure in failures:
        print(f"ci_gate: FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
