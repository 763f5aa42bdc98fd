"""The three workloads: inputs from the seed, a fixture, and one pass of work.

Each workload object makes all of its inputs in ``__init__`` from the seed,
before anything is timed.  ``setup()`` is what ``setup_s`` times: a fresh
interpreter importing the program (the start-up a user pays before the
first request) plus ``bring_up()`` of a fresh fixture -- store, runner or
server, and any warm-up.  ``run_pass(rec)`` sends one pass of operations
and reports each through the :class:`Recorder`; ``teardown()`` stops the
fixture.  A workload whose passes must start cold sets ``RESET_EACH_PASS``;
the harness then tears down and brings up a fresh fixture between passes,
off the clock.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import pools
from check import OutputCheck, load_expected
from repro.core.election_index import search_statistics
from repro.core.tasks import Task
from repro.portgraph.io import graph_to_dict
from repro.runner import ExperimentRunner, GraphSpec, SweepSpec, refinement_cache
from repro.runner.bootstrap import attach_store_path
from serving import Client, HostedServer

REF_LOOP_N = 200_000
REF_EVERY_S = 0.5
SRC = str(Path(__file__).resolve().parent.parent / "src")


def startup_probe() -> None:
    """Import the runner and serving stacks in a fresh interpreter.

    No ``timeout``: with one, ``wait`` polls in sleeps of up to 50 ms and
    the measured time comes out in 50 ms steps.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run(
        [sys.executable, "-c", "import repro.runner, repro.service"], env=env, check=True
    )


def ref_loop() -> float:
    """A fixed pure-Python loop; returns its wall time in ms (host drift probe)."""
    started = time.perf_counter()
    total = 0
    for i in range(REF_LOOP_N):
        total += i * i % 7
    return (time.perf_counter() - started) * 1000.0


class Recorder:
    """Latency samples and checks of one run; pauses the clock for probes.

    ``passes[k][i]`` is the latency in ms of the ``i``-th operation of pass
    ``k``; every pass of a run sends the same operations in the same order.
    """

    def __init__(self, check: OutputCheck) -> None:
        self.check = check
        self.passes: List[List[float]] = []
        self.ops = 0
        self.ref_ms: List[float] = []
        self.paused_s = 0.0
        self._last_ref = time.perf_counter()

    def start_pass(self) -> None:
        self.passes.append([])

    def op(self, latency_s: float, item: dict, answer: Optional[dict], *, advice: bool = False) -> None:
        self.ops += 1
        self.passes[-1].append(latency_s * 1000.0)
        self.check.record(item, answer, advice=advice)

    def between_ops(self) -> None:
        """A safe point (nothing in flight): run the drift probe every so often."""
        now = time.perf_counter()
        if now - self._last_ref >= REF_EVERY_S:
            self.ref_ms.append(ref_loop())
            self._last_ref = time.perf_counter()
            self.paused_s += self._last_ref - now


def _answer(response: dict) -> dict:
    return {
        "n": response["n"],
        "m": response["m"],
        "feasible": response["feasible"],
        "indices": response["indices"],
        "fingerprint": response.get("fingerprint"),
        "advice": (response.get("advice") or {}).get("map"),
    }


class Workload:
    NAME = ""
    OPS = ""
    #: Tear down and bring up a fresh fixture between passes (off the
    #: clock), so that every pass starts from the same cold state.
    RESET_EACH_PASS = False
    #: set-ups per ``--trace 0`` run; ``setup_s`` is their median
    SETUP_REPEATS = 5
    #: measured seconds of one pass on a 2-core Xeon host; a ``--trace 0``
    #: run makes ``round(seconds / PASS_S)`` passes, at least ``MIN_PASSES``
    PASS_S = 1.0
    MIN_PASSES = 3
    #: passes of the fixed-work traced run (and of its untraced twin)
    TRACE_PASSES = 1
    client: Optional[Client] = None

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.check = OutputCheck(load_expected(self.NAME))
        self._fixtures = 0
        self.make_inputs()

    def make_inputs(self) -> None:
        """Make the seed's pass: the operations every pass sends."""

    def passes_for(self, seconds: float) -> int:
        return max(self.MIN_PASSES, round(seconds / self.PASS_S))

    def _fresh_dir(self) -> str:
        self._fixtures += 1
        path = os.path.join(self.workdir, f"{self.NAME}-{self._fixtures}")
        os.makedirs(path)
        return path

    def setup(self) -> None:
        startup_probe()
        self.bring_up()

    def store(self):
        raise NotImplementedError

    def counters(self) -> Dict[str, int]:
        """Program counters read from outside, for the traced run's deltas."""
        store = self.store()
        io = store.io_counters()
        hot = store.hot_tier.counters() if store.hot_tier is not None else {}
        return {
            "cache_hits": refinement_cache.hits,
            "cache_misses": refinement_cache.misses,
            "search_states": search_statistics()["states"],
            "bytes_read": io["bytes_read"],
            "bytes_written": io["bytes_written"],
            "hot_hits": hot.get("hot_hits", 0),
            "hot_misses": hot.get("hot_misses", 0),
            "connections": self.client.connections if self.client else 0,
            "requests": self.client.requests if self.client else 0,
        }


# --------------------------------------------------------------------------- #
class SweepSearch(Workload):
    NAME = "sweep-search"
    OPS = "graphs"
    RESET_EACH_PASS = True
    PASS_S = 1.6

    def make_inputs(self) -> None:
        self._items = pools.sweep_pass(random.Random(f"sweep-search:{self.seed}"))

    def bring_up(self) -> None:
        self._dir = self._fresh_dir()
        attach_store_path(self._dir)
        self.runner = ExperimentRunner(workers=1, store_path=self._dir)

    def teardown(self) -> None:
        store = refinement_cache.store
        refinement_cache.attach_store(None)
        if store is not None:
            store.close()
        refinement_cache.clear()
        shutil.rmtree(self._dir, ignore_errors=True)

    def store(self):
        return refinement_cache.store

    def run_pass(self, rec: Recorder) -> None:
        items = self._items
        sweep = SweepSpec.make(
            [GraphSpec.from_dict(item["spec"]) for item in items],
            tasks=[Task(code) for code in pools.ALL_TASKS],
        )
        started = time.perf_counter()
        for index, status, record in self.runner.stream(sweep):
            done = time.perf_counter()
            answer = None
            if status == "ok":
                answer = {
                    "n": record["n"],
                    "m": record["m"],
                    "feasible": record["feasible"],
                    "indices": {code: record[f"psi_{code}"] for code in pools.ALL_TASKS},
                }
            rec.op(done - started, items[index], answer)
            rec.between_ops()
            started = time.perf_counter()


# --------------------------------------------------------------------------- #
class _Served(Workload):
    """A workload driving a hosted server over one client connection."""

    def bring_up(self) -> None:
        self._dir = self._fresh_dir()
        self.server = HostedServer(os.path.join(self._dir, "store"))
        self.client = Client(self.server.port)
        self.warm()

    def warm(self) -> None:
        """Fixture-specific warm-up (part of set-up time)."""

    def teardown(self) -> None:
        self.client.close()
        self.server.close()
        refinement_cache.clear()
        shutil.rmtree(self._dir, ignore_errors=True)

    def store(self):
        return self.server.store

    def request(self, rec: Optional[Recorder], item: dict, body: bytes, *, advice: bool = False) -> None:
        started = time.perf_counter()
        status, response = self.client.post(body)
        done = time.perf_counter()
        answer = _answer(response) if status == 200 else None
        if rec is None:
            self.check.record(item, answer, advice=advice)
        else:
            rec.op(done - started, item, answer, advice=advice)


def _body(item: dict, *, graph: Optional[dict] = None, advice: bool = False) -> bytes:
    payload = {"tasks": item["tasks"]}
    if graph is not None:
        payload["graph"] = graph
    else:
        payload["spec"] = item["spec"]
    if advice:
        payload["advice"] = True
    return json.dumps(payload).encode("utf-8")


class ServeZipf(_Served):
    NAME = "serve-zipf"
    OPS = "requests"
    SETUP_REPEATS = 3
    PASS_S = 4.5

    def make_inputs(self) -> None:
        self.working_set = pools.zipf_working_set()
        # every request body, built before anything is timed or traced
        graphs = {
            item["id"]: graph_to_dict(GraphSpec.from_dict(item["spec"]).build())
            for item in self.working_set
        }
        self._requests = [
            (item, advice, _body(item, graph=graphs[item["id"]] if as_graph else None, advice=advice))
            for item, as_graph, advice in pools.zipf_pass(
                random.Random(f"serve-zipf:requests:{self.seed}"), self.working_set
            )
        ]

    def warm(self) -> None:
        for item in self.working_set:
            self.request(None, item, _body(item))

    def run_pass(self, rec: Recorder) -> None:
        for item, advice, body in self._requests:
            self.request(rec, item, body, advice=advice)
            rec.between_ops()


class DeltaStream(_Served):
    NAME = "delta-stream"
    OPS = "items"
    #: a replayed item would hit the cache entry its first answer left
    RESET_EACH_PASS = True
    PASS_S = 1.5
    #: One item in flight.  With the default window (8 items over 4 threads
    #: that share the interpreter lock) items finish in bursts, so the
    #: per-item gaps split into ~0 ms and full-item modes and their median
    #: jumps between the two from run to run.
    WINDOW = 1

    def make_inputs(self) -> None:
        self._bases = pools.delta_bases()
        self._items = pools.delta_pass(random.Random(f"delta-stream:{self.seed}"))

    def warm(self) -> None:
        for item in self._bases:
            self.request(None, item, _body(item))

    def run_pass(self, rec: Recorder) -> None:
        items = self._items
        payloads = [
            {"base": item["base"], "delta": item["delta"], "tasks": item["tasks"]}
            for item in items
        ]
        previous = time.perf_counter()
        answered = set()
        for arrived, line in self.client.post_batch(payloads, self.WINDOW):
            if line is not None and "index" not in line:
                continue  # header / trailer
            if line is None:
                index = len(answered)
                answer = None
            else:
                index = line["index"]
                answer = _answer(line) if line.get("status") == "ok" else None
            answered.add(index)
            rec.op(arrived - previous, items[index], answer)
            previous = arrived
        for index in range(len(items)):
            if index not in answered:  # stream ended early: count as failed
                rec.op(0.0, items[index], None)
        rec.between_ops()


WORKLOADS = {cls.NAME: cls for cls in (SweepSearch, ServeZipf, DeltaStream)}
