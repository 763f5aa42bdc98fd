"""Command-line interface: quick access to the main pieces of the reproduction.

Examples
--------
Summarise a built-in generator graph and compute its election indices::

    repro-leader-election indices --generator asymmetric-cycle --size 8

Construct a member of one of the paper's families and print its statistics::

    repro-leader-election family gdk --delta 4 --k 1 --index 3
    repro-leader-election family udk --delta 4 --k 1
    repro-leader-election family jmuk --mu 2 --k 4

Print the counting facts for a parameter triple::

    repro-leader-election counts --delta 5 --k 2 --mu 2

Run a batched experiment sweep through the experiment runner (shared
refinement cache, optional multiprocessing fan-out, deterministic tables,
optional persistent artifact store)::

    repro-leader-election bench --generator asymmetric-cycle --sizes 5,6,7,8
    repro-leader-election bench --graph gdk:delta=4,k=1,index=2 --graph star:leaves=5 \
        --tasks S,PE --workers 4 --format csv --output results.csv
    repro-leader-election bench --spec sweep.json --repeat 2 --cache-stats
    repro-leader-election bench --generator complete --sizes 5,6,7 --store artifacts/
    repro-leader-election bench --generator random-regular --sizes 6,8,10 --batch

Run a seeded scenario-corpus sweep, streaming NDJSON records as they
complete (locally through the runner fan-out, or against a running batch
service with ``--url``)::

    repro-leader-election sweep --corpus mixed --count 200 --seed 7 --workers 4
    repro-leader-election sweep --corpus mixed --count 200 --seed 7 \
        --url http://localhost:8765

Precompute a corpus into the artifact store before serving -- resumable,
multiprocess, sharing its sweep id and progress record with the batch
service (``GET /sweeps/<id>``)::

    repro-leader-election warm --store artifacts/ --corpus mixed --count 200 --jobs 4
    repro-leader-election warm --store artifacts/ --spec sweep.json --compact

Serve the election pipeline over HTTP (asyncio, request coalescing, warm
starts from the artifact store, batch/streaming sweeps)::

    repro-leader-election serve --port 8765 --store artifacts/
    repro-leader-election serve --backend process --shards 4 --store artifacts/
    repro-leader-election serve --port 0 --port-file /tmp/repro.port
    curl -s localhost:8765/stats
    curl -s localhost:8765/metrics
    curl -sN localhost:8765/elections \
        -d '{"sweep": {"corpus": "mixed", "count": 50, "seed": 7}}'

Model-check the service's concurrency protocols (exhaustive within the
bounds; fails if any invariant breaks, any run can deadlock, or the
seeded known-bad mutants go undetected)::

    repro-leader-election verify --all
    repro-leader-election verify --protocol batch --items 6 --window 3 --json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .analysis.statistics import format_table, summarize_graph
from .core import Task, all_election_indices
from .families import (
    build_gdk_member,
    build_jmuk_member,
    build_jmuk_template,
    build_udk_member,
    build_udk_template,
    family_summary,
    jmuk_border_count,
    udk_tree_count,
)
from .runner.spec import sized_graph_kinds

__all__ = ["main", "build_parser"]

#: kind -> size parameter name, for every generator parameterised by one
#: size.  Derived from the runner's graph-kind registry (the single source
#: of builders), so the ``indices`` subcommand and ``--generator`` sweeps
#: automatically offer every registered one-parameter generator.
_SIZE_PARAM = sized_graph_kinds()

#: Generators offered by the ``indices`` subcommand and ``--generator``.
_INDICES_GENERATORS = tuple(sorted(_SIZE_PARAM))


def _generator_spec(name: str, size: int):
    """The runner spec for one named generator at one size."""
    from .runner import GraphSpec

    if name == "random":
        # historical `indices` semantics: a mildly dense random graph
        return GraphSpec.make("random", n=size, extra_edges=size // 2, seed=0)
    return GraphSpec.make(name, **{_SIZE_PARAM.get(name, "n"): size})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-leader-election",
        description="Reproduction of 'Four Shades of Deterministic Leader Election in Anonymous Networks'",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    indices = sub.add_parser("indices", help="compute ψ_S, ψ_PE, ψ_PPE, ψ_CPPE of a generator graph")
    indices.add_argument("--generator", choices=_INDICES_GENERATORS, default="asymmetric-cycle")
    indices.add_argument("--size", type=int, default=6)

    family = sub.add_parser("family", help="construct a member of one of the paper's graph families")
    family.add_argument("name", choices=["gdk", "udk", "jmuk"])
    family.add_argument("--delta", type=int, default=4)
    family.add_argument("--k", type=int, default=1)
    family.add_argument("--mu", type=int, default=2)
    family.add_argument("--index", type=int, default=1, help="G_i index for gdk")
    family.add_argument("--template", action="store_true", help="build the template (udk / jmuk)")

    counts = sub.add_parser("counts", help="print the counting facts (Facts 2.3, 3.1, 4.1, 4.2)")
    counts.add_argument("--delta", type=int, default=5)
    counts.add_argument("--k", type=int, default=2)
    counts.add_argument("--mu", type=int, default=2)

    bench = sub.add_parser(
        "bench",
        help="run a batched sweep (graphs x tasks) through the experiment runner",
    )
    bench.add_argument("--spec", metavar="FILE", help="load a SweepSpec from a JSON file")
    bench.add_argument(
        "--generator",
        action="append",
        default=[],
        metavar="NAME",
        help="sweep a generator over --sizes (repeatable)",
    )
    bench.add_argument("--sizes", default="6,8", help="comma-separated sizes for --generator sweeps")
    bench.add_argument(
        "--graph",
        action="append",
        default=[],
        metavar="KIND:key=val,...",
        help="add one graph spec, e.g. gdk:delta=4,k=1,index=2 (repeatable)",
    )
    bench.add_argument("--tasks", default="S,PE,PPE,CPPE", help="comma-separated task codes")
    bench.add_argument(
        "--profile-depths",
        default="",
        help="comma-separated depths at which to record view-class profiles",
    )
    bench.add_argument("--max-depth", type=int, default=None)
    bench.add_argument("--max-states", type=int, default=200_000)
    bench.add_argument("--workers", type=int, default=1, help="worker processes (1 = in-process)")
    bench.add_argument("--chunk-size", type=int, default=None, help="jobs per worker chunk")
    bench.add_argument("--repeat", type=int, default=1, help="run the sweep this many times (cache demo)")
    bench.add_argument("--format", choices=["text", "json", "csv"], default="text")
    bench.add_argument("--output", default="-", help="write the table here ('-' = stdout)")
    bench.add_argument("--cache-stats", action="store_true", help="print refinement-cache stats to stderr")
    bench.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="persistent artifact store: warm-start from DIR and write results through",
    )
    bench.add_argument(
        "--batch",
        action="store_true",
        help="stream NDJSON records as graphs complete instead of a final table",
    )
    bench.add_argument(
        "--profile",
        action="store_true",
        help="trace the run (one span per stage/graph) and print a per-stage "
        "profile table to stderr when it finishes",
    )
    bench.add_argument(
        "--kernel-backend",
        choices=["auto", "python", "numpy"],
        default=None,
        help=(
            "force the kernel compute backend for this run (and its worker "
            "processes); default honours REPRO_KERNEL_BACKEND, then 'auto' "
            "(numpy when installed).  Results are byte-identical either way."
        ),
    )

    sweep = sub.add_parser(
        "sweep",
        help="stream a seeded scenario-corpus sweep as NDJSON (locally or via --url)",
    )
    sweep.add_argument(
        "--corpus",
        default="mixed",
        help="named scenario corpus to expand (see repro.scenarios)",
    )
    sweep.add_argument("--count", type=int, default=50, help="number of corpus graphs")
    sweep.add_argument("--seed", type=int, default=0, help="corpus expansion seed")
    sweep.add_argument("--spec", metavar="FILE", help="load a SweepSpec JSON instead of a corpus")
    sweep.add_argument("--tasks", default="S,PE,PPE,CPPE", help="comma-separated task codes")
    sweep.add_argument("--max-depth", type=int, default=None)
    sweep.add_argument("--max-states", type=int, default=200_000)
    sweep.add_argument("--workers", type=int, default=1, help="worker processes (local mode)")
    sweep.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="artifact store to warm-start from and write through (local mode)",
    )
    sweep.add_argument(
        "--url",
        default=None,
        metavar="BASE",
        help="POST the sweep to a running service (e.g. http://localhost:8765) "
        "and stream its NDJSON response instead of computing locally",
    )
    sweep.add_argument(
        "--window", type=int, default=None, help="service in-flight window (--url mode)"
    )
    sweep.add_argument("--output", default="-", help="write NDJSON here ('-' = stdout)")
    sweep.add_argument(
        "--trace-out",
        metavar="FILE",
        default=None,
        help="append the sweep's spans to FILE as JSONL (local mode only)",
    )
    sweep.add_argument(
        "--mutate",
        action="store_true",
        help="dynamic-graph mode: expand each corpus graph into seeded "
        "cumulative mutation streams and sweep the {base, delta} items "
        "(delta-replayed against the base instead of recomputed cold)",
    )
    sweep.add_argument(
        "--mutations-per-graph",
        type=int,
        default=3,
        metavar="N",
        help="--mutate: edit-script steps per corpus graph (default 3)",
    )
    sweep.add_argument(
        "--mutation-seed",
        type=int,
        default=None,
        metavar="SEED",
        help="--mutate: mutation-stream seed (defaults to --seed)",
    )

    warm = sub.add_parser(
        "warm",
        help="precompute a corpus (or sweep spec) into the artifact store, "
        "resumably, with the runner's multiprocessing fan-out",
    )
    warm.add_argument(
        "--store",
        metavar="DIR",
        required=True,
        help="artifact store to warm (created if missing)",
    )
    warm.add_argument(
        "--corpus",
        default="mixed",
        help="named scenario corpus to expand (see repro.scenarios)",
    )
    warm.add_argument("--count", type=int, default=50, help="number of corpus graphs")
    warm.add_argument("--seed", type=int, default=0, help="corpus expansion seed")
    warm.add_argument("--spec", metavar="FILE", help="load a SweepSpec JSON instead of a corpus")
    warm.add_argument("--tasks", default="S,PE,PPE,CPPE", help="comma-separated task codes")
    warm.add_argument("--max-depth", type=int, default=None)
    warm.add_argument("--max-states", type=int, default=200_000)
    warm.add_argument(
        "--jobs", type=int, default=1, help="worker processes for the fan-out"
    )
    warm.add_argument(
        "--no-resume",
        action="store_true",
        help="recompute every item even if a previous run finished some",
    )
    warm.add_argument(
        "--compact",
        action="store_true",
        help="compact the store (GC quarantined/superseded objects) afterwards",
    )
    warm.add_argument(
        "--quiet", action="store_true", help="suppress per-item progress output"
    )

    serve = sub.add_parser(
        "serve",
        help="serve feasibility / ψ_Z indices / advice over HTTP (asyncio)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765)
    serve.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="persistent artifact store backing the service (created if missing)",
    )
    serve.add_argument(
        "--workers", type=int, default=4, help="bounded compute worker pool size"
    )
    serve.add_argument(
        "--max-states",
        type=int,
        default=200_000,
        help="default PPE/CPPE search budget for queries that do not set one",
    )
    serve.add_argument(
        "--backend",
        choices=["thread", "process"],
        default="thread",
        help="compute backend: GIL-bound thread pool, or hash-sharded "
        "persistent worker processes (one core each)",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=None,
        help="process-backend worker count (defaults to --workers)",
    )
    serve.add_argument(
        "--recycle-after",
        type=int,
        default=None,
        help="process-backend: retire a shard worker after this many tasks",
    )
    serve.add_argument(
        "--port-file",
        metavar="FILE",
        default=None,
        help="write the bound port here once listening (use with --port 0 "
        "for a kernel-assigned, collision-free port)",
    )
    serve.add_argument(
        "--hot-tier-mb",
        type=int,
        default=64,
        help="in-process hot tier of mmap'd store records per serving "
        "process, in MiB (0 disables; requires --store)",
    )
    serve.add_argument(
        "--slow-request-s",
        type=float,
        default=None,
        help="log requests slower than this many seconds to stderr with "
        "their trace id (default 1.0; env REPRO_SLOW_REQUEST_S)",
    )
    serve.add_argument(
        "--compact-interval-s",
        type=float,
        default=None,
        metavar="SECONDS",
        help="compact the store (GC quarantined/superseded objects, under "
        "the manifest flock) every SECONDS while serving; requires --store. "
        "Runs surface as repro_store_events{event=\"compactions\"} on /metrics",
    )

    verify = sub.add_parser(
        "verify",
        help="model-check the service's concurrency protocols exhaustively",
    )
    verify.add_argument(
        "--all",
        action="store_true",
        help="check every protocol plus the seeded known-bad mutants "
        "(the default when no --protocol is given)",
    )
    verify.add_argument(
        "--protocol",
        action="append",
        default=[],
        choices=["batch", "worker", "delta"],
        help="check only this protocol (repeatable; skips the mutant gate)",
    )
    verify.add_argument(
        "--max-states",
        type=int,
        default=200_000,
        help="state-space exploration bound (a hit bound fails the run)",
    )
    verify.add_argument(
        "--max-depth",
        type=int,
        default=10_000,
        help="exploration depth bound (a hit bound fails the run)",
    )
    verify.add_argument(
        "--items", type=int, default=4, help="batch model: items per sweep"
    )
    verify.add_argument(
        "--window", type=int, default=2, help="batch model: in-flight window"
    )
    verify.add_argument(
        "--jobs", type=int, default=3, help="worker model: jobs to dispatch"
    )
    verify.add_argument(
        "--recycle-after",
        type=int,
        default=2,
        help="worker model: recycle threshold",
    )
    verify.add_argument(
        "--json", action="store_true", help="emit the full report as JSON"
    )

    return parser


def _print_summary(graph) -> None:
    summary = summarize_graph(graph, max_depth=6)
    rows = [
        ["name", summary.name],
        ["nodes", summary.num_nodes],
        ["edges", summary.num_edges],
        ["max degree", summary.max_degree],
        ["feasible", summary.feasible],
        ["selection index ψ_S", summary.selection_index],
        ["view classes by depth", summary.view_classes_by_depth],
    ]
    print(format_table(["property", "value"], rows))


def _command_indices(args: argparse.Namespace) -> int:
    graph = _generator_spec(args.generator, args.size).build()
    _print_summary(graph)
    indices = all_election_indices(graph)
    rows = [[task.value, task.full_name, indices[task]] for task in Task.ordered()]
    print()
    print(format_table(["task", "name", "ψ_Z(G)"], rows))
    return 0


def _command_family(args: argparse.Namespace) -> int:
    if args.name == "gdk":
        member = build_gdk_member(args.delta, args.k, args.index)
        graph = member.graph
    elif args.name == "udk":
        if args.template:
            member = build_udk_template(args.delta, args.k)
        else:
            sigma = tuple(1 for _ in range(udk_tree_count(args.delta, args.k)))
            member = build_udk_member(args.delta, args.k, sigma)
        graph = member.graph
    else:
        if args.k < 4:
            print("J_{µ,k} requires k >= 4", file=sys.stderr)
            return 2
        if args.template:
            member = build_jmuk_template(args.mu, args.k)
        else:
            z = jmuk_border_count(args.mu, args.k)
            member = build_jmuk_member(args.mu, args.k, tuple(0 for _ in range(2 ** (z - 1))))
        graph = member.graph
    _print_summary(graph)
    return 0


def _parse_int_list(text: str) -> List[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _parse_graph_option(option: str):
    """Parse ``kind:key=val,key=val`` into a :class:`~repro.runner.GraphSpec`."""
    from .runner import GraphSpec

    kind, _, rest = option.partition(":")
    params = {}
    for item in filter(None, rest.split(",")):
        key, eq, value = item.partition("=")
        if not eq:
            raise ValueError(f"malformed --graph parameter {item!r} (expected key=value)")
        params[key.strip()] = int(value)
    return GraphSpec.make(kind.strip(), **params)


def _build_sweep(args: argparse.Namespace):
    from .runner import GraphSpec, SweepSpec

    if args.spec:
        with open(args.spec, "r", encoding="utf-8") as handle:
            return SweepSpec.from_json(handle.read())
    graphs = []
    sizes = _parse_int_list(args.sizes)
    for name in args.generator:
        param = _SIZE_PARAM.get(name, "n")
        graphs.extend(GraphSpec.make(name, **{param: size}) for size in sizes)
    graphs.extend(_parse_graph_option(option) for option in args.graph)
    if not graphs:
        raise ValueError("no graphs to sweep: pass --spec, --generator or --graph")
    return SweepSpec.make(
        graphs,
        tasks=[Task(code.strip()) for code in args.tasks.split(",") if code.strip()],
        max_depth=args.max_depth,
        max_states=args.max_states,
        profile_depths=_parse_int_list(args.profile_depths),
    )


def _command_bench(args: argparse.Namespace) -> int:
    from .runner import ExperimentRunner, refinement_cache

    if args.kernel_backend is not None:
        from .kernel import set_backend

        try:
            # pins the backend in-process and exports REPRO_KERNEL_BACKEND so
            # pool worker processes resolve the same choice
            set_backend(args.kernel_backend)
        except RuntimeError as error:
            print(f"bench: {error}", file=sys.stderr)
            return 2
    try:
        sweep = _build_sweep(args)
    except (ValueError, OSError) as error:
        print(f"bench: {error}", file=sys.stderr)
        return 2
    if args.repeat < 1:
        print("bench: --repeat must be at least 1", file=sys.stderr)
        return 2
    try:
        runner = ExperimentRunner(
            workers=args.workers, chunk_size=args.chunk_size, store_path=args.store
        )
    except ValueError as error:
        print(f"bench: {error}", file=sys.stderr)
        return 2
    if args.profile:
        from .obs import new_trace_id
        from .obs import span as obs_span

        if args.workers > 1:
            print(
                "bench --profile: spans cover the parent process only with "
                "--workers > 1 (pool workers do not ship spans back)",
                file=sys.stderr,
            )
        profile_trace = new_trace_id("bench")
        with obs_span("bench", trace_id=profile_trace):
            code = _run_bench(args, sweep, runner, refinement_cache)
        _print_profile(profile_trace)
        return code
    return _run_bench(args, sweep, runner, refinement_cache)


def _run_bench(args: argparse.Namespace, sweep, runner, refinement_cache) -> int:
    from .obs import counter_snapshot

    if args.batch:
        try:
            written = _stream_ndjson(runner, sweep, args.output)
        except ValueError as error:
            print(f"bench: {error}", file=sys.stderr)
            return 2
        print(f"bench --batch: streamed {written} records", file=sys.stderr)
        return 0
    report = None
    for run_number in range(1, args.repeat + 1):
        before = counter_snapshot(refinement_cache)["cache"]
        try:
            report = runner.run(sweep)
        except ValueError as error:
            # bad graph parameters surface here: specs are only built inside
            # the runner (possibly in a worker process)
            print(f"bench: {error}", file=sys.stderr)
            return 2
        if args.cache_stats:
            after = report.cache_stats
            fresh_passes = after["refinement_passes"] - before["refinement_passes"]
            store_note = ""
            if report.store_stats is not None:
                store_note = (
                    f", store records={report.store_stats['records']} "
                    f"hits={after['store_hits']}"
                )
            print(
                f"[run {run_number}/{args.repeat}] {len(sweep.graphs)} graphs in "
                f"{report.elapsed:.3f}s, workers={report.workers}, "
                f"cache hits={after['hits']} misses={after['misses']} "
                f"new refinement passes={fresh_passes}{store_note}",
                file=sys.stderr,
            )
    rendered = report.table.render(args.format)
    if args.output == "-":
        sys.stdout.write(rendered)
    else:
        with open(args.output, "w", encoding="utf-8", newline="") as handle:
            handle.write(rendered)
    return 0


def _print_profile(trace_id: str) -> None:
    """Print a bench trace's per-stage aggregate table to stderr."""
    from .obs import default_recorder

    rows = default_recorder.profile(trace_id)
    print(f"bench --profile: trace {trace_id}", file=sys.stderr)
    print(f"{'stage':<20}{'count':>8}{'total_ms':>14}{'max_ms':>12}", file=sys.stderr)
    for row in rows:
        print(
            f"{row['name']:<20}{row['count']:>8}"
            f"{row['total_ms']:>14.3f}{row['max_ms']:>12.3f}",
            file=sys.stderr,
        )


def _stream_ndjson(runner, sweep, output: str) -> int:
    """Stream a sweep through the runner as NDJSON lines; returns the line count."""
    handle = sys.stdout if output == "-" else open(output, "w", encoding="utf-8")
    written = 0
    try:
        for index, status, payload in runner.stream(sweep):
            line = {"index": index, "status": status}
            if status == "ok":
                line.update(payload)
            else:
                line["error"] = payload
            handle.write(json.dumps(line, sort_keys=True) + "\n")
            handle.flush()
            written += 1
    finally:
        if handle is not sys.stdout:
            handle.close()
    return written


def _command_sweep(args: argparse.Namespace) -> int:
    from .core import Task

    try:
        tasks = [Task(code.strip()) for code in args.tasks.split(",") if code.strip()]
    except ValueError as error:
        print(f"sweep: {error}", file=sys.stderr)
        return 2
    if args.mutate:
        if args.spec:
            print(
                "sweep: --mutate expands a named corpus into mutation streams; "
                "it cannot be combined with --spec",
                file=sys.stderr,
            )
            return 2
        if args.trace_out is not None:
            print("sweep: --mutate cannot be combined with --trace-out", file=sys.stderr)
            return 2
        return _sweep_mutate(args, tasks)
    if args.url is not None:
        if args.trace_out is not None:
            print(
                "sweep: --trace-out records local spans; it cannot be combined "
                "with --url (the service keeps its own traces -- see GET /trace/<id>)",
                file=sys.stderr,
            )
            return 2
        return _sweep_remote(args, [task.value for task in tasks])
    from .runner import ExperimentRunner, SweepSpec
    from .scenarios import corpus_specs

    try:
        if args.spec:
            with open(args.spec, "r", encoding="utf-8") as handle:
                sweep = SweepSpec.from_json(handle.read())
        else:
            sweep = SweepSpec.make(
                corpus_specs(args.count, seed=args.seed, corpus=args.corpus),
                tasks=tasks,
                max_depth=args.max_depth,
                max_states=args.max_states,
            )
        runner = ExperimentRunner(workers=args.workers, store_path=args.store)
        if args.trace_out is not None:
            from .obs import default_recorder, new_trace_id
            from .obs import span as obs_span

            if args.workers > 1:
                print(
                    "sweep --trace-out: spans cover the parent process only "
                    "with --workers > 1",
                    file=sys.stderr,
                )
            sweep_trace = new_trace_id("sweep")
            default_recorder.attach_sink(args.trace_out)
            try:
                with obs_span(
                    "sweep", trace_id=sweep_trace, tags={"corpus": args.corpus}
                ):
                    written = _stream_ndjson(runner, sweep, args.output)
            finally:
                default_recorder.attach_sink(None)
            print(
                f"sweep: appended trace {sweep_trace} spans to {args.trace_out}",
                file=sys.stderr,
            )
        else:
            written = _stream_ndjson(runner, sweep, args.output)
    except (ValueError, OSError) as error:
        print(f"sweep: {error}", file=sys.stderr)
        return 2
    print(f"sweep: streamed {written} records", file=sys.stderr)
    return 0


def _sweep_mutate(args: argparse.Namespace, tasks) -> int:
    """``sweep --mutate``: stream a dynamic-graph sweep of ``{base, delta}`` items.

    Expands the corpus, generates seeded cumulative mutation streams per
    graph, and evaluates each item through the service's delta path --
    locally via :func:`~repro.service.service.compute_election` (the exact
    worker-side code a server would run, so results are byte-identical), or
    remotely by POSTing the items to a running ``/elections`` endpoint.
    """
    from .scenarios import corpus_specs, mutation_sweep_items

    if args.mutations_per_graph < 1:
        print("sweep: --mutations-per-graph must be at least 1", file=sys.stderr)
        return 2
    mutation_seed = args.mutation_seed if args.mutation_seed is not None else args.seed
    try:
        specs = corpus_specs(args.count, seed=args.seed, corpus=args.corpus)
        items = mutation_sweep_items(
            specs, seed=mutation_seed, per_graph=args.mutations_per_graph
        )
    except ValueError as error:
        print(f"sweep: {error}", file=sys.stderr)
        return 2
    shared = {"tasks": [task.value for task in tasks], "max_states": args.max_states}
    if args.max_depth is not None:
        shared["max_depth"] = args.max_depth
    payload_items = [dict(shared, **item) for item in items]
    if args.url is not None:
        body = {"items": payload_items}
        if args.window is not None:
            body["window"] = args.window
        return _relay_batch(args, body)
    from .runner import refinement_cache
    from .service.service import ServiceError, compute_election, deterministic_response

    prior_store = refinement_cache.store
    if args.store is not None:
        from .store import ArtifactStore

        refinement_cache.attach_store(ArtifactStore(args.store))
    handle = sys.stdout if args.output == "-" else open(args.output, "w", encoding="utf-8")
    written = errors = 0
    try:
        for index, item in enumerate(payload_items):
            parsed = {
                "graph": None,
                "spec": None,
                "base": item["base"],
                "delta": item["delta"],
                "tasks": tasks,
                "max_depth": args.max_depth,
                "max_states": args.max_states,
                "advice": False,
            }
            try:
                response = compute_election(parsed)
                line = dict(deterministic_response(response), index=index, status="ok")
            except ServiceError as error:
                line = {"index": index, "status": "error", "error": error.message}
                errors += 1
            handle.write(json.dumps(line, sort_keys=True) + "\n")
            handle.flush()
            written += 1
    finally:
        if handle is not sys.stdout:
            handle.close()
        if args.store is not None:
            refinement_cache.attach_store(prior_store)
    print(
        f"sweep --mutate: streamed {written} delta records "
        f"({len(specs)} bases x {args.mutations_per_graph} steps, "
        f"{errors} errors)",
        file=sys.stderr,
    )
    return 0 if errors == 0 else 1


def _relay_batch(args: argparse.Namespace, body: dict) -> int:
    """POST ``body`` to a running batch service and relay its NDJSON stream."""
    import urllib.error
    import urllib.request

    request = urllib.request.Request(
        f"{args.url.rstrip('/')}/elections",
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    handle = sys.stdout if args.output == "-" else open(args.output, "w", encoding="utf-8")
    written = 0
    try:
        with urllib.request.urlopen(request) as response:
            for raw_line in response:
                handle.write(raw_line.decode("utf-8"))
                handle.flush()
                written += 1
    except urllib.error.HTTPError as error:
        print(f"sweep: service rejected the batch: {error.read().decode()}", file=sys.stderr)
        return 2
    except (urllib.error.URLError, OSError) as error:
        print(f"sweep: {error}", file=sys.stderr)
        return 2
    finally:
        if handle is not sys.stdout:
            handle.close()
    print(f"sweep: relayed {written} stream lines from {args.url}", file=sys.stderr)
    return 0


def _sweep_remote(args: argparse.Namespace, task_codes: List[str]) -> int:
    """POST the sweep to a running batch service and relay its NDJSON stream."""
    if args.spec:
        from .runner import SweepSpec

        try:
            with open(args.spec, "r", encoding="utf-8") as handle:
                sweep = SweepSpec.from_json(handle.read())
        except (ValueError, OSError) as error:
            print(f"sweep: {error}", file=sys.stderr)
            return 2
        body = {
            "items": [
                {
                    "spec": spec.to_dict(),
                    "tasks": [task.value for task in sweep.tasks],
                    "max_depth": sweep.max_depth,
                    "max_states": sweep.max_states,
                }
                for spec in sweep.graphs
            ]
        }
    else:
        declarative = {
            "corpus": args.corpus,
            "count": args.count,
            "seed": args.seed,
            "tasks": task_codes,
            "max_states": args.max_states,
        }
        if args.max_depth is not None:
            declarative["max_depth"] = args.max_depth
        body = {"sweep": declarative}
    if args.window is not None:
        body["window"] = args.window
    return _relay_batch(args, body)


def _command_warm(args: argparse.Namespace) -> int:
    from .core import Task
    from .runner import SweepSpec, warm_sweep
    from .scenarios import corpus_specs

    try:
        tasks = [Task(code.strip()) for code in args.tasks.split(",") if code.strip()]
        if args.spec:
            with open(args.spec, "r", encoding="utf-8") as handle:
                sweep = SweepSpec.from_json(handle.read())
            shared = {
                "tasks": [task.value for task in sweep.tasks],
                "max_depth": sweep.max_depth,
                "max_states": sweep.max_states,
            }
        else:
            sweep = SweepSpec.make(
                corpus_specs(args.count, seed=args.seed, corpus=args.corpus),
                tasks=tasks,
                max_depth=args.max_depth,
                max_states=args.max_states,
            )
            # the shared keys a declarative service sweep of this corpus
            # would carry -- keeps the sweep id (and progress record) equal
            shared = {
                "tasks": [task.value for task in tasks],
                "max_states": args.max_states,
            }
            if args.max_depth is not None:
                shared["max_depth"] = args.max_depth

        def progress(done: int, total: int, label: str, status: str) -> None:
            if not args.quiet:
                mark = "ok" if status == "ok" else "ERROR"
                print(f"warm [{done}/{total}] {label}: {mark}", file=sys.stderr)

        report = warm_sweep(
            sweep,
            args.store,
            shared=shared,
            jobs=args.jobs,
            resume=not args.no_resume,
            compact=args.compact,
            progress=progress,
        )
    except (ValueError, OSError) as error:
        print(f"warm: {error}", file=sys.stderr)
        return 2
    stats = report.store_stats
    print(
        f"warm: sweep {report.sweep_id}: {report.warmed} warmed, "
        f"{report.skipped} resumed, {report.errors} errors "
        f"({report.total} items, jobs={report.jobs}, {report.elapsed:.3f}s); "
        f"store holds {stats['records']} records",
        file=sys.stderr,
    )
    if report.compaction is not None:
        compaction = report.compaction
        removed = sum(v for k, v in compaction.items() if k.startswith("removed_"))
        print(
            f"warm: compacted store (generation {compaction['generation']}): "
            f"{removed} objects reclaimed, {compaction['live_records']} live",
            file=sys.stderr,
        )
    print(report.sweep_id)
    return 0 if report.errors == 0 else 1


def _command_serve(args: argparse.Namespace) -> int:
    from .service import run_server

    try:
        run_server(
            host=args.host,
            port=args.port,
            store_path=args.store,
            workers=args.workers,
            max_states=args.max_states,
            backend=args.backend,
            shards=args.shards,
            recycle_after=args.recycle_after,
            port_file=args.port_file,
            slow_request_s=args.slow_request_s,
            hot_tier_bytes=args.hot_tier_mb * 1024 * 1024,
            compact_interval_s=args.compact_interval_s,
        )
    except ValueError as error:
        print(f"serve: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        pass
    return 0


def _command_verify(args: argparse.Namespace) -> int:
    from .verify import run_verification

    protocols = args.protocol or None
    include_mutants = args.all or not args.protocol
    report = run_verification(
        protocols,
        max_states=args.max_states,
        max_depth=args.max_depth,
        include_mutants=include_mutants,
        batch_items=args.items,
        batch_window=args.window,
        worker_jobs=args.jobs,
        worker_recycle_after=args.recycle_after,
    )
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for entry in report["models"]:
            verdict = "ok" if entry["ok"] and entry["complete"] else "FAILED"
            bound_note = "" if entry["complete"] else " (bound hit: incomplete)"
            print(
                f"verify {entry['model']}: {verdict} -- {entry['states']} states, "
                f"{entry['transitions']} transitions, depth {entry['depth']}"
                f"{bound_note}"
            )
            for violation in entry["violations"]:
                print(f"  {violation['kind']}: {violation['message']}")
                for event, state in violation["trace"]:
                    print(f"    {event:>14}  {state}")
        for entry in report["mutants"]:
            verdict = "caught" if entry["caught"] else "MISSED (vacuous checker!)"
            print(
                f"verify {entry['model']}: {verdict} "
                f"(expected {entry['expected_kind']}; {entry['states']} states)"
            )
    return 0 if report["ok"] else 1


def _command_counts(args: argparse.Namespace) -> int:
    from .families import format_count

    summary = family_summary(args.delta, args.k, args.mu)
    print(json.dumps({key: format_count(value) for key, value in summary.items()}, indent=2))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "indices":
        return _command_indices(args)
    if args.command == "family":
        return _command_family(args)
    if args.command == "counts":
        return _command_counts(args)
    if args.command == "bench":
        return _command_bench(args)
    if args.command == "sweep":
        return _command_sweep(args)
    if args.command == "warm":
        return _command_warm(args)
    if args.command == "serve":
        return _command_serve(args)
    if args.command == "verify":
        return _command_verify(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
