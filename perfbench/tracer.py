"""Outside-in layer timing: wrap the public functions of each layer.

The program has no spans of its own below ``evaluate_graph``, so the traced
run patches the functions listed in :data:`LAYERS` -- on their class, on
their module, and on every ``repro`` module that imported them by name --
with a wrapper that records calls, inclusive time and *self* time (inclusive
minus the time spent in wrapped calls it made), per thread.  Uninstalling
restores every patched attribute.  Nothing is patched in untraced runs.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: (layer, module, attribute path).  A layer may wrap several functions.
LAYERS: List[Tuple[str, str, str]] = [
    ("service.compute_election", "repro.service.service", "compute_election"),
    ("runner.spec_build", "repro.runner.spec", "GraphSpec.build"),
    ("runner.evaluate", "repro.runner.runner", "evaluate_graph"),
    ("runner.evaluate_spec", "repro.runner.runner", "evaluate_graph_spec"),
    ("runner.delta_entry", "repro.runner.cache", "RefinementCache.delta_entry"),
    ("portgraph.fingerprint", "repro.portgraph.graph", "PortLabeledGraph.fingerprint"),
    ("portgraph.graph_parse", "repro.portgraph.io", "graph_from_dict"),
    ("portgraph.delta_apply", "repro.portgraph.delta", "GraphDelta.apply_to"),
    ("kernel.refine", "repro.kernel.refine", "CSRPartitionRefinement.ensure_depth"),
    ("kernel.refine", "repro.kernel.refine", "CSRPartitionRefinement.ensure_stable"),
    ("kernel.refine", "repro.kernel.refine_numpy", "NumpyPartitionRefinement.ensure_depth"),
    ("kernel.refine", "repro.kernel.refine_numpy", "NumpyPartitionRefinement.ensure_stable"),
    ("kernel.csr_build", "repro.kernel.csr", "build_csr"),
    ("kernel.csr_build", "repro.kernel.csr", "CSRGraph.patched"),
    ("kernel.blockcut", "repro.kernel.blockcut", "BlockCutTree.__init__"),
    ("kernel.delta_replay", "repro.kernel.refine", "refinement_delta"),
    ("core.psi", "repro.core.election_index", "election_index"),
    ("advice.map_encode", "repro.advice.map_advice", "encode_map_advice"),
    ("store.get", "repro.store.store", "ArtifactStore.get"),
    ("store.get", "repro.store.store", "ArtifactStore.load_for_graph"),
    ("store.put", "repro.store.store", "ArtifactStore.put"),
    ("store.record_decode", "repro.store.record", "ArtifactRecord.from_bytes"),
    ("store.record_encode", "repro.store.record", "ArtifactRecord.to_bytes"),
]


def _resolve(module_name: str, path: str):
    """``(owner, attribute name, raw attribute)`` of ``module.path``."""
    owner = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, name, owner.__dict__[name]


class Tracer:
    """Per-layer call counts and times; a context manager that installs it.

    ``plant`` maps a layer to seconds of sleep added inside every wrapped
    call of that layer -- the benchmark's own non-vacuity test uses it to
    check that a known delay shows up in that layer and in no other.
    """

    def __init__(self, plant: Optional[Dict[str, float]] = None) -> None:
        self._plant = dict(plant or {})
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[dict] = []
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    def _state(self) -> dict:
        state = getattr(self._local, "state", None)
        if state is None:
            state = {
                "stack": [],
                "calls": defaultdict(int),
                "incl": defaultdict(float),
                "self": defaultdict(float),
                "counts": defaultdict(int),
                "intervals": [],
            }
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def _call(self, layer: str, fn: Callable, args: tuple, kwargs: dict):
        state = self._state()
        stack = state["stack"]  # [layer, child seconds] per open call
        if layer == "core.psi":
            task = args[0] if args else kwargs["task"]
            layer = f"core.psi.{task.value}"
        # depth advances: counted at the outermost engine call of a thread,
        # plus the depths a delta replay materialises in its new engine
        engine = None
        if layer == "kernel.refine" and all(open_[0] != layer for open_ in stack):
            engine = args[0]
            passes_before = engine.passes
        delay = self._plant.get(layer)
        stack.append([layer, 0.0])
        started = time.perf_counter()
        try:
            if delay:
                time.sleep(delay)
            result = fn(*args, **kwargs)
        finally:
            ended = time.perf_counter()
            duration = ended - started
            child = stack.pop()[1]
            if stack:
                stack[-1][1] += duration
            else:
                state["intervals"].append((started, ended))
            state["calls"][layer] += 1
            state["incl"][layer] += duration
            state["self"][layer] += duration - child
            if engine is not None:
                state["counts"]["kernel.refine_passes"] += engine.passes - passes_before
        if layer == "kernel.delta_replay":
            state["counts"]["kernel.refine_passes"] += result.passes
        return result

    def _wrap(self, layer: str, raw):
        if isinstance(raw, classmethod):
            inner = raw.__func__

            @functools.wraps(inner)
            def class_wrapper(*args, **kwargs):
                return self._call(layer, inner, args, kwargs)

            return classmethod(class_wrapper)

        @functools.wraps(raw)
        def wrapper(*args, **kwargs):
            return self._call(layer, raw, args, kwargs)

        return wrapper

    # ------------------------------------------------------------------ #
    def install(self) -> None:
        for layer, module_name, path in LAYERS:
            owner, name, raw = _resolve(module_name, path)
            wrapped = self._wrap(layer, raw)
            self._patches.append((owner, name, raw))
            setattr(owner, name, wrapped)
            if "." in path:
                continue
            # functions imported by name elsewhere: patch those bindings too
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", None)
                if (
                    module is not owner
                    and getattr(module, "__name__", "").startswith("repro")
                    and namespace is not None
                    and namespace.get(name) is raw
                ):
                    self._patches.append((module, name, raw))
                    setattr(module, name, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, raw = self._patches.pop()
            setattr(owner, name, raw)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # ------------------------------------------------------------------ #
    def totals(self) -> Dict[str, Dict[str, float]]:
        """``{layer: {"calls", "incl_s", "self_s"}}`` summed over threads."""
        out: Dict[str, Dict[str, float]] = {}
        with self._lock:
            states = list(self._threads)
        for state in states:
            for layer, calls in list(state["calls"].items()):
                row = out.setdefault(layer, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
                row["calls"] += calls
                row["incl_s"] += state["incl"][layer]
                row["self_s"] += state["self"][layer]
        return out

    def count(self, name: str) -> int:
        with self._lock:
            states = list(self._threads)
        return sum(state["counts"][name] for state in states)

    def entry_intervals(self) -> List[Tuple[float, float]]:
        """``(start, end)`` of every outermost wrapped call, sorted."""
        with self._lock:
            states = list(self._threads)
        return sorted(i for state in states for i in state["intervals"])


def union_seconds(intervals: List[Tuple[float, float]]) -> float:
    """Total length covered by a sorted list of ``(start, end)`` intervals."""
    covered = 0.0
    current_start = current_end = None
    for start, end in intervals:
        if current_end is None or start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        covered += current_end - current_start
    return covered
