"""The benchmark's own tests (not part of the repository's tier-1 suite).

    python3 -m pytest perfbench/tests/selftest_perfbench.py -q

They check that the traced run's counts and the untraced run's verdict
repeat exactly for one seed, that every seed's pass carries the same costly
operations, that a delay planted in one wrapped layer is attributed to that
layer and to no other, that the output check counts failures without
aborting, and that the benchmark refuses to run without the program's source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent
ROOT = PERFBENCH.parent
sys.path.insert(0, str(PERFBENCH))
sys.path.insert(0, str(ROOT / "src"))

import pools  # noqa: E402
import run  # noqa: E402
from check import OutputCheck, load_expected  # noqa: E402

WORKLOAD_NAMES = ("sweep-search", "serve-zipf", "delta-stream")
#: per-layer metrics that are counts or ratios of counts, not times
EXACT = (
    "service.connections_per_request",
    "runner.cache_hit_ratio",
    "kernel.refine_passes",
    "core.search_states",
    "store.hot_hit_ratio",
    "store.bytes_read",
    "store.bytes_written",
)


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _traced(workload: str, seed: int) -> dict:
    completed = _run("--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1")
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_harness():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in config["workloads"]] == list(WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in config["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in config["per_layer"]] == [
        (name, unit) for name, unit, _moves, _on in run.PER_LAYER
    ]


def test_expected_answers_cover_every_pool_item():
    import make_expected

    for workload in WORKLOAD_NAMES:
        items, _advice = make_expected.pool_items(workload)
        assert {item["id"] for item in items} == set(load_expected(workload))


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_counts_repeat_exactly(workload):
    first, second = _traced(workload, 7), _traced(workload, 7)
    for name in EXACT:
        assert first["metrics"][name] == second["metrics"][name], name
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])


def test_untraced_verdict_repeats_exactly():
    """The work of a ``--trace 0`` run is fixed, so its verdict repeats."""
    def verdict() -> tuple:
        completed = _run("--workload", "serve-zipf", "--seed", "5", "--seconds", "1", "--trace", "0")
        assert completed.returncode == 0, completed.stderr
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        return result["attempted"], result["failed"]

    assert verdict() == verdict()


def test_every_seed_sends_the_same_costly_operations():
    import random

    working_set = pools.zipf_working_set()
    heavy = {working_set[rank]["id"] for rank in (pools.ZIPF_ANCHOR_RANK,) + pools.ZIPF_BEACON_RANKS}

    def zipf_heavy(seed: int) -> list:
        requests = pools.zipf_pass(random.Random(seed), working_set)
        assert len(requests) == pools.ZIPF_PASS_REQUESTS
        return sorted((item["id"], as_graph, advice) for item, as_graph, advice in requests if item["id"] in heavy)

    def expensive(items: list) -> list:
        return sorted(item["id"] for item in items if not item["id"].startswith(("random(", "star(")))

    for seed in (2, 3):
        assert zipf_heavy(seed) == zipf_heavy(1)
        assert expensive(pools.sweep_pass(random.Random(seed))) == expensive(pools.sweep_pass(random.Random(1)))
    for make in (pools.sweep_pass, pools.delta_pass):
        items = make(random.Random(1))
        assert len({item["id"] for item in items}) == len(items)


def test_best_latencies_take_each_operations_fastest_repeat():
    assert run.best_latencies([[3.0, 1.0], [2.0, 5.0], [4.0, 0.5]]) == [2.0, 0.5]
    with pytest.raises(RuntimeError):
        run.best_latencies([[1.0], [1.0, 2.0]])


def test_planted_delay_shows_in_its_layer_only(tmp_path):
    from workloads import ServeZipf

    delay_s = 0.002

    def traced(plant=None) -> dict:
        workdir = tmp_path / f"run-{len(list(tmp_path.iterdir()))}"
        workdir.mkdir()
        return run.run_traced(ServeZipf(3, str(workdir)), plant=plant)

    base_a, base_b = traced(), traced()
    planted = traced({"portgraph.fingerprint": delay_s})
    ops = ServeZipf.TRACE_PASSES * pools.ZIPF_PASS_REQUESTS
    expected_ms = delay_s * 1000.0 * planted["calls"]["portgraph.fingerprint"] / ops
    for name, _layer in run.SELF_TIME_LAYERS.items():
        low, high = sorted((base_a["metrics"][name], base_b["metrics"][name]))
        spread = max(high - low, 0.05 + 0.25 * high)
        moved = planted["metrics"][name] - (low + high) / 2
        if name == "portgraph.fingerprint_ms":
            assert expected_ms * 0.9 - spread <= moved <= expected_ms * 1.5 + spread, moved
            assert moved > 3 * spread, (moved, spread)
        else:
            assert abs(moved) <= 3 * spread, (name, moved, spread)
    for name in ("service.request_ms", "trace.unaccounted_share"):
        low, high = sorted((base_a["metrics"][name], base_b["metrics"][name]))
        assert abs(planted["metrics"][name] - (low + high) / 2) <= 3 * max(high - low, 0.05 + 0.25 * high)


def test_output_check_counts_failures_and_never_raises():
    item = {"id": "x", "tasks": ["S", "PE"]}
    check = OutputCheck({"x": {"n": 3, "m": 2, "feasible": True, "indices": {"S": 1, "PE": 1}}})
    good = {"n": 3, "m": 2, "feasible": True, "indices": {"S": 1, "PE": 1}, "fingerprint": "a"}
    assert check.record(item, good)
    assert not check.record(item, dict(good, fingerprint="b"))  # another path disagrees
    assert not check.record(item, dict(good, indices={"S": 2, "PE": 1}))
    assert not check.record(item, None)
    assert (check.attempted, check.failed) == (4, 3)
    assert (check.fingerprint_mismatches, check.wrong, check.errors) == (1, 1, 1)
    assert not check.correct


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(PERFBENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run("--workload", "serve-zipf", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
