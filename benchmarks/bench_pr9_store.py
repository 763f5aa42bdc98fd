"""PR 9 — the traffic-shaped store tier: hot-tier p99, byte identity, compaction.

Not a table of the paper: the performance record of the warm/hot/compact
serving pipeline.  Three measurements, written to ``BENCH_PR9.json`` and
gated (a regression exits non-zero, failing the CI job):

* **Store-level zipf lookups, cold vs hot.**  The mixed corpus is warmed
  into a store by :func:`repro.runner.warm.warm_sweep` (the ``repro warm``
  pipeline), then a zipf-shaped key stream -- the traffic shape the hot
  tier is built for, where a few fingerprints absorb most requests -- is
  replayed through ``ArtifactStore.get`` twice: once on a cold handle
  (every lookup is open+read+decode) and once on a hot-tier handle (repeat
  fingerprints decode from mmap'd residents).  Gate: hot p99 strictly
  below cold p99, hot hits observed, and every record byte-identical
  between the two paths.
* **Service-level zipf traffic.**  An in-process
  :class:`~repro.service.ElectionServer` with traffic-shaped serving
  enabled (hot tier + second-touch admission) answers the same zipf
  stream over HTTP; p50/p99 and the /stats counters are recorded, and the
  deterministic part of every response is compared against a cold,
  store-less service computing from scratch.  Gate: zero byte-identity
  diffs, and zero refinement passes by any engine of the serving process
  (every graph is in the warmed store, so no request may refine).  (The HTTP p99 itself is recorded but not hard-gated -- loopback
  latency is too noisy across CI machines.)
* **Compaction curve.**  Debris is manufactured next to the live records
  (stale temp files, quarantined and corrupt objects) and
  ``ArtifactStore.compact()`` reclaims it; object counts, directory bytes
  and the manifest generation are recorded before and after.  Gate: all
  debris removed, no live record lost.

Usage::

    PYTHONPATH=src python benchmarks/bench_pr9_store.py [BENCH_PR9.json]
"""

from __future__ import annotations

import json
import os
import random
import shutil
import statistics
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from service_harness import ThreadedElectionServer  # noqa: E402

from repro.runner import refinement_cache, warm_sweep  # noqa: E402
from repro.runner.spec import SweepSpec  # noqa: E402
from repro.scenarios.corpus import corpus_specs  # noqa: E402
from repro.service import ElectionService, deterministic_response  # noqa: E402
from repro.store import ArtifactStore  # noqa: E402

#: Corpus size warmed into the store (distinct graphs = distinct records).
CORPUS_COUNT = 16
CORPUS_SEED = 9
#: Zipf exponent of the replayed traffic (s ≈ 1.1: a hot head, a long tail).
ZIPF_S = 1.1
#: Store-level lookups replayed per path.
STORE_DRAWS = 1500
#: Service-level HTTP requests replayed.
SERVICE_DRAWS = 120
MAX_STATES = 50_000


def _percentiles(samples_ms):
    ordered = sorted(samples_ms)
    return {
        "p50_ms": round(statistics.median(ordered), 4),
        "p99_ms": round(ordered[min(len(ordered) - 1, int(len(ordered) * 0.99))], 4),
        "mean_ms": round(statistics.fmean(ordered), 4),
    }


def zipf_choices(population, draws: int, *, seed: int, s: float = ZIPF_S):
    """``draws`` zipf-shaped picks from ``population`` (rank 1 hottest)."""
    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) ** s for rank in range(len(population))]
    return rng.choices(population, weights=weights, k=draws)


def _warm_corpus(store_dir: str) -> dict:
    sweep = SweepSpec.make(
        corpus_specs(CORPUS_COUNT, seed=CORPUS_SEED), max_states=MAX_STATES
    )
    report = warm_sweep(
        sweep, store_dir, shared={"max_states": MAX_STATES}, jobs=2
    )
    assert report.errors == 0, "warm pipeline reported item errors"
    refinement_cache.attach_store(None)
    refinement_cache.clear()
    return {
        "sweep_id": report.sweep_id,
        "items": report.total,
        "warmed": report.warmed,
        "jobs": report.jobs,
        "elapsed_s": round(report.elapsed, 3),
        "records": report.store_stats["records"],
    }


def run_store_zipf(store_dir: str) -> dict:
    """Cold vs hot ``ArtifactStore.get`` over one zipf key stream (gated)."""
    cold_store = ArtifactStore(store_dir)
    keys = sorted(cold_store.manifest()["records"])
    stream = zipf_choices(keys, STORE_DRAWS, seed=CORPUS_SEED)

    def replay(store):
        samples, payloads = [], {}
        for key in stream:
            t0 = time.perf_counter()
            record = store.get(key)
            samples.append((time.perf_counter() - t0) * 1000.0)
            assert record is not None, f"lookup lost record {key}"
            if key not in payloads:
                payloads[key] = record.to_bytes()
        return samples, payloads

    cold_samples, cold_payloads = replay(cold_store)
    hot_store = ArtifactStore(store_dir, hot_tier_bytes=64 * 1024 * 1024)
    hot_samples, hot_payloads = replay(hot_store)
    counters = hot_store.stats()
    hot_store.close()

    diffs = sum(1 for key in cold_payloads if cold_payloads[key] != hot_payloads[key])
    result = {
        "keys": len(keys),
        "draws": STORE_DRAWS,
        "zipf_s": ZIPF_S,
        "cold": _percentiles(cold_samples),
        "hot": _percentiles(hot_samples),
        "hot_hits": counters["hot_hits"],
        "hot_admissions": counters["hot_admissions"],
        "hot_bytes": counters["hot_bytes"],
        "byte_identity_diffs": diffs,
    }
    assert diffs == 0, "hot-tier decode diverged from the cold read path"
    assert counters["hot_hits"] > 0, "zipf stream never hit the hot tier"
    assert result["hot"]["p99_ms"] < result["cold"]["p99_ms"], (
        f"hot tier did not improve store-get p99: "
        f"hot={result['hot']['p99_ms']}ms cold={result['cold']['p99_ms']}ms"
    )
    return result


def run_service_zipf(store_dir: str) -> dict:
    """Traffic-shaped serving over HTTP vs a cold store-less service (gated)."""
    sweep = SweepSpec.make(
        corpus_specs(CORPUS_COUNT, seed=CORPUS_SEED), max_states=MAX_STATES
    )
    payloads = [
        {"spec": spec.to_dict(), "max_states": MAX_STATES} for spec in sweep.graphs
    ]
    stream = zipf_choices(list(range(len(payloads))), SERVICE_DRAWS, seed=CORPUS_SEED + 1)

    refinement_cache.clear()
    service = ElectionService(
        store=ArtifactStore(store_dir), workers=2, hot_tier_bytes=64 * 1024 * 1024
    )
    samples, hot_responses = [], {}
    with ThreadedElectionServer(service) as running:
        for index in stream:
            t0 = time.perf_counter()
            response = running.post("/election", payloads[index])
            samples.append((time.perf_counter() - t0) * 1000.0)
            hot_responses.setdefault(index, deterministic_response(response))
        stats = running.get("/stats")
    refinement_cache.clear()

    cold_service = ElectionService(workers=2)
    with ThreadedElectionServer(cold_service) as running:
        diffs = sum(
            1
            for index, expected in sorted(hot_responses.items())
            if deterministic_response(running.post("/election", payloads[index]))
            != expected
        )
    refinement_cache.clear()

    store_section = stats["store"]
    result = {
        "draws": SERVICE_DRAWS,
        "distinct_payloads": len(payloads),
        "latency": _percentiles(samples),
        "store_hits": store_section["hits"],
        "hot_hits": store_section["hot_hits"],
        "hot_admissions": store_section["hot_admissions"],
        "cache_admissions": stats["cache"]["admissions"],
        "cache_admission_rejects": stats["cache"]["admission_rejects"],
        "refinement_passes": stats["cache"]["refinement_passes"],
        "byte_identity_diffs": diffs,
    }
    assert diffs == 0, "hot serving diverged from cold computation"
    assert result["refinement_passes"] == 0, "warm zipf serving refined a graph"
    assert store_section["hits"] > 0, "warmed service never read the store"
    return result


def run_compaction_curve(store_dir: str) -> dict:
    """Manufacture debris next to the live records; compaction reclaims it."""

    def census(root):
        objects = bytes_total = 0
        for dirpath, _dirnames, filenames in os.walk(os.path.join(root, "objects")):
            for name in filenames:
                objects += 1
                bytes_total += os.path.getsize(os.path.join(dirpath, name))
        return objects, bytes_total

    store = ArtifactStore(store_dir)
    live_before = store.stats()["records"]
    objects_dir = os.path.join(store_dir, "objects", "zz")
    os.makedirs(objects_dir, exist_ok=True)
    debris = {
        "corrupt": os.path.join(objects_dir, "f" * 16 + ".rple"),
        "quarantined": os.path.join(objects_dir, "e" * 16 + ".rple.quarantine"),
        "stale_tmp": os.path.join(objects_dir, "d" * 16 + ".rple.tmp.999"),
    }
    for path in debris.values():
        with open(path, "wb") as handle:
            handle.write(b"\x00garbage" * 64)
    stale = time.time() - 3600.0
    os.utime(debris["stale_tmp"], (stale, stale))

    objects_before, bytes_before = census(store_dir)
    generation_before = store.generation()
    summary = store.compact()
    objects_after, bytes_after = census(store_dir)

    result = {
        "before": {
            "objects": objects_before,
            "bytes": bytes_before,
            "generation": generation_before,
        },
        "after": {
            "objects": objects_after,
            "bytes": bytes_after,
            "generation": store.generation(),
        },
        "summary": summary,
    }
    assert summary["removed_corrupt"] >= 1, "corrupt debris survived compaction"
    assert summary["removed_quarantined"] >= 1, "quarantined debris survived"
    assert summary["removed_tmp"] >= 1, "stale temp debris survived"
    assert summary["live_records"] == live_before, "compaction lost live records"
    assert bytes_after < bytes_before, "compaction reclaimed no bytes"
    assert result["after"]["generation"] > generation_before
    return result


def main(argv) -> int:
    output_path = argv[1] if len(argv) > 1 else "BENCH_PR9.json"
    store_dir = tempfile.mkdtemp(prefix="repro-pr9-store-")
    try:
        warm = _warm_corpus(store_dir)
        payload = {
            "warm": warm,
            "store_zipf": run_store_zipf(store_dir),
            "service_zipf": run_service_zipf(store_dir),
            "compaction": run_compaction_curve(store_dir),
        }
    finally:
        refinement_cache.attach_store(None)
        refinement_cache.clear()
        shutil.rmtree(store_dir, ignore_errors=True)
    with open(output_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
