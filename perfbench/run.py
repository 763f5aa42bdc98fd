"""perfbench: the repository's benchmark of the four ψ_Z shades.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` sets the workload up several times (``setup_s`` is the
median), then sends the seed's pass of operations ``round(seconds /
PASS_S)`` times -- about ``--seconds`` of measured time on a 2-core Xeon
host -- and prints the end-to-end metrics of each operation's best repeat.  ``--trace 1`` runs a fixed number
of passes twice on fresh fixtures, untraced and then with every layer
wrapped (see ``tracer.py``), and prints the per-layer metrics.  Either way
the last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``README.md`` for the
workloads, the metrics and which layer should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: (name, unit) of the end-to-end metrics, in BENCHMARK.json order.
END_TO_END = [
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("ok_share", "share"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]

#: (name, unit, end-to-end metric it should move, workloads) of the per-layer
#: metrics, in BENCHMARK.json order.  Times are self time per operation.
PER_LAYER = [
    ("service.request_ms", "ms", "latency_p50_ms, throughput_per_s", "serve-zipf"),
    ("service.connections_per_request", "ratio", "latency_p50_ms, throughput_per_s", "serve-zipf"),
    ("service.batch_gap_ms", "ms", "throughput_per_s", "delta-stream"),
    ("runner.spec_build_ms", "ms", "latency_p50_ms", "serve-zipf"),
    ("runner.cache_hit_ratio", "ratio", "latency_p50_ms, latency_tail_ms", "serve-zipf"),
    ("runner.evaluate_self_ms", "ms", "latency_p50_ms, latency_tail_ms", "serve-zipf"),
    ("runner.delta_entry_ms", "ms", "latency_p50_ms", "delta-stream"),
    ("portgraph.fingerprint_ms", "ms", "latency_p50_ms", "serve-zipf, delta-stream"),
    ("portgraph.graph_parse_ms", "ms", "latency_p50_ms", "serve-zipf"),
    ("portgraph.delta_apply_ms", "ms", "latency_p50_ms", "delta-stream"),
    ("kernel.refine_ms", "ms", "latency_p50_ms", "serve-zipf, sweep-search"),
    ("kernel.refine_passes", "count", "latency_p50_ms", "serve-zipf, sweep-search"),
    ("kernel.csr_build_ms", "ms", "throughput_per_s", "delta-stream, serve-zipf"),
    ("kernel.blockcut_ms", "ms", "throughput_per_s", "delta-stream, sweep-search"),
    ("kernel.delta_replay_ms", "ms", "latency_p50_ms", "delta-stream"),
    ("core.psi_ms.S", "ms", "throughput_per_s, latency_tail_ms", "sweep-search"),
    ("core.psi_ms.PE", "ms", "throughput_per_s, latency_tail_ms", "sweep-search"),
    ("core.psi_ms.PPE", "ms", "throughput_per_s, latency_tail_ms", "sweep-search"),
    ("core.psi_ms.CPPE", "ms", "throughput_per_s, latency_tail_ms", "sweep-search"),
    ("core.search_states", "count", "throughput_per_s, latency_tail_ms", "sweep-search"),
    ("advice.map_encode_ms", "ms", "latency_p50_ms", "serve-zipf"),
    ("store.get_ms", "ms", "latency_tail_ms", "serve-zipf"),
    ("store.record_decode_ms", "ms", "latency_tail_ms", "serve-zipf"),
    ("store.hot_hit_ratio", "ratio", "latency_tail_ms", "serve-zipf"),
    ("store.bytes_read", "bytes", "latency_tail_ms", "serve-zipf"),
    ("store.put_ms", "ms", "throughput_per_s", "sweep-search, delta-stream"),
    ("store.record_encode_ms", "ms", "throughput_per_s", "sweep-search, delta-stream"),
    ("store.bytes_written", "bytes", "throughput_per_s", "sweep-search, delta-stream"),
    ("trace.overhead_pct", "%", "none (tracing health)", "all"),
    ("trace.unaccounted_share", "share", "none (tracing health)", "all"),
    ("host.ref_loop_ms", "ms", "none (host drift)", "all"),
]

#: per-layer ``*_ms`` metric -> wrapped layer whose self time it reports
SELF_TIME_LAYERS = {
    "runner.spec_build_ms": "runner.spec_build",
    "runner.evaluate_self_ms": "runner.evaluate",
    "runner.delta_entry_ms": "runner.delta_entry",
    "portgraph.fingerprint_ms": "portgraph.fingerprint",
    "portgraph.graph_parse_ms": "portgraph.graph_parse",
    "portgraph.delta_apply_ms": "portgraph.delta_apply",
    "kernel.refine_ms": "kernel.refine",
    "kernel.csr_build_ms": "kernel.csr_build",
    "kernel.blockcut_ms": "kernel.blockcut",
    "kernel.delta_replay_ms": "kernel.delta_replay",
    "core.psi_ms.S": "core.psi.S",
    "core.psi_ms.PE": "core.psi.PE",
    "core.psi_ms.PPE": "core.psi.PPE",
    "core.psi_ms.CPPE": "core.psi.CPPE",
    "advice.map_encode_ms": "advice.map_encode",
    "store.get_ms": "store.get",
    "store.record_decode_ms": "store.record_decode",
    "store.put_ms": "store.put",
    "store.record_encode_ms": "store.record_encode",
}
ENTRY_LAYERS = ("service.compute_election", "runner.evaluate_spec")


def quartiles(values: List[float]):
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(latencies: List[float]):
    """``(value, percentile)``: the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(latencies)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    return ordered[-11], 100.0 * (len(ordered) - 10) / len(ordered)


def _ratio(hits: float, total: float) -> float:
    return hits / total if total else 0.0


# --------------------------------------------------------------------------- #
def best_latencies(passes: List[List[float]]) -> List[float]:
    """Each operation's lowest latency over the passes that sent it.

    Host contention only ever adds time, so the fastest of an operation's
    repeats is its cost on the uncontended host (the ``timeit`` convention).
    """
    if len({len(latencies) for latencies in passes}) != 1:
        raise RuntimeError("passes of one run sent different numbers of operations")
    return [min(repeats) for repeats in zip(*passes)]


def run_untraced(workload, seconds: float) -> dict:
    from workloads import Recorder

    setup_s: List[float] = []
    for _ in range(workload.SETUP_REPEATS):
        if setup_s:
            workload.teardown()
        started = time.perf_counter()
        workload.setup()
        setup_s.append(time.perf_counter() - started)
    rec = Recorder(workload.check)
    pass_rates: List[float] = []
    try:
        for index in range(workload.passes_for(seconds)):
            if index and workload.RESET_EACH_PASS:
                workload.teardown()
                workload.bring_up()
            rec.start_pass()
            paused, started = rec.paused_s, time.perf_counter()
            workload.run_pass(rec)
            elapsed = time.perf_counter() - started - (rec.paused_s - paused)
            pass_rates.append(len(rec.passes[-1]) / elapsed)
    finally:
        workload.teardown()
    best = best_latencies(rec.passes)
    tail_ms, tail_pct = tail(best)
    check = workload.check
    metrics = {
        "throughput_per_s": len(best) * 1000.0 / sum(best),
        "latency_p50_ms": statistics.median(best),
        "latency_tail_ms": tail_ms,
        "ok_share": (check.attempted - check.failed) / check.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_s),
    }
    notes = {
        "throughput_per_s": ("ops over the sum of best latencies; q1/q3: wall rate per pass", quartiles(pass_rates)),
        "latency_p50_ms": ("median best latency; q1/q3 of the best latencies", quartiles(best)),
        "latency_tail_ms": (
            f"p{tail_pct:.2f} of {len(best)} best latencies"
            + (", 10 beyond" if len(best) > 10 else ", the maximum"),
            None,
        ),
        "ok_share": (
            f"failed_share={check.failed / check.attempted:.6f}: errors={check.errors} "
            f"wrong={check.wrong} fingerprint_mismatches={check.fingerprint_mismatches}",
            None,
        ),
        "peak_rss_mb": ("whole process", None),
        "setup_s": (f"median of {len(setup_s)} set-ups (fresh-interpreter import + fixture)", quartiles(setup_s)),
    }
    header = (
        f"{workload.NAME} seed={workload.seed}: {len(rec.passes)} passes of {len(best)} "
        f"{workload.OPS}, {sum(len(best) / rate for rate in pass_rates):.2f} s measured; "
        f"latencies are each operation's best of its {len(rec.passes)} repeats"
    )
    return {"metrics": metrics, "notes": notes, "ref_ms": rec.ref_ms, "header": header}


def run_traced(workload, plant: Optional[Dict[str, float]] = None) -> dict:
    from tracer import Tracer, union_seconds
    from workloads import Recorder

    def run_passes(rec: Recorder) -> float:
        started = time.perf_counter()
        for _ in range(workload.TRACE_PASSES):
            rec.start_pass()
            workload.run_pass(rec)
        return time.perf_counter() - started - rec.paused_s

    workload.bring_up()
    try:
        untraced_rec = Recorder(workload.check)
        untraced_s = run_passes(untraced_rec)
    finally:
        workload.teardown()
    workload.bring_up()  # a fresh fixture; the same pass again, traced
    try:
        before = workload.counters()
        rec = Recorder(workload.check)
        with Tracer(plant) as tracer:
            traced_s = run_passes(rec)
        after = workload.counters()
    finally:
        workload.teardown()
    delta = {key: after[key] - before[key] for key in after}
    totals = tracer.totals()
    ops = rec.ops

    def self_ms(layer: str) -> float:
        return totals.get(layer, {}).get("self_s", 0.0) * 1000.0 / ops

    metrics: Dict[str, float] = {name: self_ms(layer) for name, layer in SELF_TIME_LAYERS.items()}
    served = delta["requests"] > 0
    plumbing_ms = (traced_s - union_seconds(tracer.entry_intervals())) * 1000.0 / ops
    batch = workload.NAME == "delta-stream"
    entry_self = sum(totals.get(layer, {}).get("self_s", 0.0) for layer in ENTRY_LAYERS)
    entry_incl = sum(totals.get(layer, {}).get("incl_s", 0.0) for layer in ENTRY_LAYERS)
    metrics.update({
        "service.request_ms": plumbing_ms if served and not batch else 0.0,
        "service.connections_per_request": _ratio(delta["connections"], delta["requests"]),
        "service.batch_gap_ms": plumbing_ms if batch else 0.0,
        "runner.cache_hit_ratio": _ratio(
            delta["cache_hits"], delta["cache_hits"] + delta["cache_misses"]
        ),
        "kernel.refine_passes": tracer.count("kernel.refine_passes"),
        "core.search_states": delta["search_states"],
        "store.hot_hit_ratio": _ratio(delta["hot_hits"], delta["hot_hits"] + delta["hot_misses"]),
        "store.bytes_read": delta["bytes_read"],
        "store.bytes_written": delta["bytes_written"],
        "trace.overhead_pct": (traced_s / untraced_s - 1.0) * 100.0,
        "trace.unaccounted_share": _ratio(entry_self, entry_incl),
        "host.ref_loop_ms": statistics.median(untraced_rec.ref_ms + rec.ref_ms or [0.0]),
    })
    header = (
        f"{workload.NAME} seed={workload.seed} traced: {ops} {workload.OPS} x2 "
        f"(untraced {untraced_s:.2f} s, traced {traced_s:.2f} s); times are self ms per op"
    )
    return {
        "metrics": metrics,
        "ref_ms": untraced_rec.ref_ms + rec.ref_ms,
        "header": header,
        "calls": {layer: row["calls"] for layer, row in totals.items()},
    }


# --------------------------------------------------------------------------- #
def _print_untraced(result: dict) -> None:
    print(result["header"])
    units = dict(END_TO_END)
    print(f"{'metric':<22} {'value':>14} {'unit':<6} {'q1':>12} {'q3':>12}  note")
    for name, value in result["metrics"].items():
        note, spread = result["notes"][name]
        q1, q3 = (f"{spread[0]:.4f}", f"{spread[2]:.4f}") if spread else ("", "")
        print(f"{name:<22} {value:>14.4f} {units[name]:<6} {q1:>12} {q3:>12}  {note}")


def _print_traced(result: dict) -> None:
    print(result["header"])
    print(f"{'layer metric':<34} {'value':>14} {'unit':<6}  should move (on)")
    for name, unit, moves, on in PER_LAYER:
        print(f"{name:<34} {result['metrics'][name]:>14.4f} {unit:<6}  {moves} ({on})")


def run_all(names: List[str], args: argparse.Namespace) -> int:
    """``--workload all``: each workload in its own fresh process, one after
    another, then a summary line per workload."""
    rest = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    summary, worst = [], 0
    for name in names:
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, *rest],
            capture_output=True, text=True, check=False,
        )
        sys.stdout.write(completed.stdout)
        sys.stderr.write(completed.stderr)
        worst = max(worst, completed.returncode)
        if completed.returncode != 0:
            summary.append(f"{name}: exited with code {completed.returncode}")
            continue
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        values = " ".join(
            f"{metric}={entry['value']:.4f}{entry['unit']}" for metric, entry in result["metrics"].items()
        )
        summary.append(
            f"{name}: correct={result['correct']} failed={result['failed']}/{result['attempted']} {values}"
        )
    print("\n".join(summary))
    return worst


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the four ψ_Z shades.")
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(list(WORKLOADS), args)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, str(workdir))
        if args.trace:
            result = run_traced(workload)
            _print_traced(result)
            units = {name: unit for name, unit, _moves, _on in PER_LAYER}
        else:
            result = run_untraced(workload, args.seconds)
            _print_untraced(result)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    ref_q1, ref_median, ref_q3 = quartiles(result["ref_ms"] or [0.0])
    print(
        f"host.ref_loop_ms median={ref_median:.3f} q1={ref_q1:.3f} q3={ref_q3:.3f} "
        f"min={min(result['ref_ms'] or [0.0]):.3f} "
        f"(n={len(result['ref_ms'])}; drift reference, applied to no metric)"
    )
    check = workload.check
    print(
        f"output check: {'correct' if check.correct else 'WRONG ANSWERS'}; "
        f"{check.failed} of {check.attempted} operations failed "
        f"(errors={check.errors} wrong={check.wrong} "
        f"fingerprint_mismatches={check.fingerprint_mismatches})"
    )
    print(json.dumps({
        "correct": check.correct,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {
            name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
