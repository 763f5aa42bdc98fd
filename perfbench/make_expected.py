"""Regenerate ``expected/<workload>.json``: the reference answer of every pool item.

Each item is answered cold and in-process by ``compute_election`` (refinement
cache cleared, no store), so the reference never comes from the serving
paths the benchmark measures.  A delta item is answered by submitting the
mutated graph itself, not the ``{base, delta}`` pair.  The files are
committed; regenerate them only on purpose:

    python3 perfbench/make_expected.py [--workload NAME ...]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import pools  # noqa: E402
from check import EXPECTED_DIR, advice_digest  # noqa: E402
from repro.core.tasks import Task  # noqa: E402
from repro.portgraph.delta import GraphDelta  # noqa: E402
from repro.portgraph.io import graph_to_dict  # noqa: E402
from repro.runner import GraphSpec, refinement_cache  # noqa: E402
from repro.service import compute_election  # noqa: E402


def answer(item: dict, *, advice: bool) -> dict:
    parsed = {
        "graph": None,
        "spec": None,
        "base": None,
        "delta": None,
        "tasks": [Task(code) for code in item["tasks"]],
        "max_depth": None,
        "max_states": 200_000,
        "advice": advice,
    }
    if "delta" in item:
        base = GraphSpec.from_dict(item["base"]).build()
        mutated = GraphDelta.from_payload(item["delta"]).apply_to(base).graph
        parsed["graph"] = graph_to_dict(mutated)
    else:
        parsed["spec"] = item["spec"]
    refinement_cache.clear()
    response = compute_election(parsed)
    expected = {
        "n": response["n"],
        "m": response["m"],
        "feasible": response["feasible"],
        "indices": response["indices"],
    }
    if advice:
        expected["advice"] = advice_digest(response["advice"]["map"])
    return expected


def pool_items(workload: str):
    """``(items, with_advice)`` of one workload's whole pool."""
    if workload == "sweep-search":
        return [i for group in pools.sweep_pool().values() for i in group], False
    if workload == "serve-zipf":
        return [i for group in pools.zipf_pool().values() for i in group], True
    if workload == "delta-stream":
        streams = [s for per_base in pools.delta_pool().values() for s in per_base]
        return pools.delta_bases() + [i for s in streams for i in s], False
    raise ValueError(workload)


WORKLOADS = ("sweep-search", "serve-zipf", "delta-stream")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args()
    refinement_cache.attach_store(None)
    for workload in args.workload or WORKLOADS:
        items, with_advice = pool_items(workload)
        table = {item["id"]: answer(item, advice=with_advice) for item in items}
        path = EXPECTED_DIR / f"{workload}.json"
        path.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
        print(f"{workload}: {len(table)} items -> {path.name}", file=sys.stderr)


if __name__ == "__main__":
    main()
