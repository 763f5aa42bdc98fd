"""The fixed item pools the three workloads draw from.

The pools never depend on a run's ``--seed``: the seed only chooses which
pool members a run sends, in which order and how often.  That is what lets
``expected/`` hold the reference answer of every item any run can send.

An *item* is a plain dict:

* ``id`` -- stable key (the spec label, or ``<base label>|<delta digest>``);
* ``spec`` -- ``{"kind": ..., "params": {...}}`` of the graph, or
* ``base`` + ``delta`` -- a base spec and a ``GraphDelta`` payload;
* ``tasks`` -- the task codes the workload asks for this item.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.runner.spec import GraphSpec
from repro.scenarios.corpus import corpus_specs
from repro.scenarios.mutations import mutation_stream

ALL_TASKS = ["S", "PE", "PPE", "CPPE"]
#: ψ_PPE/ψ_CPPE searches on 1k-node graphs are unbounded in practice, so the
#: large-graph and delta workloads ask for the two cheap shades only.
LARGE_TASKS = ["S", "PE"]
EDGE_KINDS = ("add-edge", "remove-edge", "relabel-ports")


def _item(spec: GraphSpec, tasks: List[str]) -> dict:
    return {"id": spec.label, "spec": spec.to_dict(), "tasks": list(tasks)}


def sweep_pool() -> Dict[str, List[dict]]:
    """sweep-search: groups of small graphs, all four tasks.

    Every pass takes the whole pool: the G_{4,1} lower-bound members of
    index 1 and 2, eleven cycles, ten stars and 168 random graphs (six of
    each (n, extra edges) pair).  The thirteen G_{4,1} members and cycles
    cost 14-180 ms each and every other graph under 10 ms, so the
    11th-largest latency of a pass falls inside the cycles and the median
    inside the random graphs.  (Index 3 costs about 1 s and is left out.)
    """
    def group(specs):
        return [_item(spec, ALL_TASKS) for spec in specs]

    return {
        "gdk": group(GraphSpec.make("gdk", delta=4, k=1, index=i) for i in (1, 2)),
        "cycle": group(GraphSpec.make("asymmetric-cycle", n=n) for n in range(14, 25)),
        "random": group(
            GraphSpec.make("random", n=6 + i % 7, extra_edges=1 + i % 4, seed=1000 + i)
            for i in range(168)
        ),
        "star": group(GraphSpec.make("star", leaves=leaves) for leaves in range(3, 13)),
    }


def sweep_pass(rng: random.Random) -> List[dict]:
    """The graphs of one sweep-search pass: the whole pool, in the seed's
    order.  (With a seeded sample of the random graphs instead, the median
    latency ranged from 3.1 to 4.0 ms over ten seeds.)"""
    items = [item for group in sweep_pool().values() for item in group]
    rng.shuffle(items)
    return items


def zipf_pool() -> Dict[str, List[dict]]:
    """serve-zipf: the distinct mixed-corpus graphs, the ROADMAP anchor, and
    beacon-tail members whose refinement fixpoint lies past 64 rounds."""
    seen = set()
    small = []
    for spec in corpus_specs(2000, seed=0, corpus="mixed"):
        if spec.label not in seen:
            seen.add(spec.label)
            small.append(_item(spec, ALL_TASKS))
    return {
        "anchor": [_item(GraphSpec.make("gdk", delta=4, index=2, k=1), ALL_TASKS)],
        "beacon": [
            _item(GraphSpec.make("beacon-tail", blob=20, tail=140 + 10 * i, seed=i), LARGE_TASKS)
            for i in range(12)
        ],
        "small": small,
    }


#: serve-zipf working set: about 3x the RefinementCache capacity (128).
ZIPF_WORKING_SET = 384
#: Zipf ranks (0 = most requested) of the anchor and of the beacon members.
ZIPF_ANCHOR_RANK = 0
ZIPF_BEACON_RANKS = (5, 20, 60)


def zipf_working_set() -> List[dict]:
    """The serve-zipf working set in rank order.

    It is the same for every seed (the seed drives the request sequence), so
    the cost of a request mix does not depend on which graphs a seed picks.
    """
    pool = zipf_pool()
    rng = random.Random("perfbench:serve-zipf")
    ranked = {ZIPF_ANCHOR_RANK: pool["anchor"][0]}
    ranked.update(zip(ZIPF_BEACON_RANKS, rng.sample(pool["beacon"], len(ZIPF_BEACON_RANKS))))
    small = iter(rng.sample(pool["small"], ZIPF_WORKING_SET - len(ranked)))
    return [ranked[rank] if rank in ranked else next(small) for rank in range(ZIPF_WORKING_SET)]


#: requests per serve-zipf pass, and the shares of them that send an
#: adjacency dict instead of a spec and that ask for advice
ZIPF_PASS_REQUESTS = 1000
ZIPF_GRAPH_SHARE = 0.25
ZIPF_ADVICE_SHARE = 0.2


def zipf_pass(rng: random.Random, working_set: List[dict]) -> List[tuple]:
    """``(item, as_graph, advice)`` of one serve-zipf pass, in the seed's order.

    Rank ``r`` of the working set is requested with weight ``1 / (r + 1)``.
    The anchor and the beacon members, which cost the most, get their
    expected count of requests rounded, with the graph and advice shares
    rounded per member; the other ranks share the remaining requests by
    systematic sampling from the seed's offset, so each gets its expected
    count rounded up or down.  Every seed's pass thus carries the same
    costly requests and differs in which cheap graphs fill it and in order.
    """
    weights = [1.0 / (rank + 1) for rank in range(len(working_set))]
    scale = ZIPF_PASS_REQUESTS / sum(weights)
    heavy = (ZIPF_ANCHOR_RANK,) + ZIPF_BEACON_RANKS
    requests = []
    for rank in heavy:
        count = round(weights[rank] * scale)
        graphs, advice = round(count * ZIPF_GRAPH_SHARE), round(count * ZIPF_ADVICE_SHARE)
        requests += [
            (working_set[rank], k < graphs, k >= count - advice) for k in range(count)
        ]
    light = [rank for rank in range(len(working_set)) if rank not in heavy]
    slots = ZIPF_PASS_REQUESTS - len(requests)
    step = sum(weights[rank] for rank in light) / slots
    point, cumulative, chosen = rng.random() * step, 0.0, []
    for rank in light:
        cumulative += weights[rank]
        while len(chosen) < slots and point < cumulative:
            chosen.append(working_set[rank])
            point += step
    as_graph = set(rng.sample(range(slots), round(slots * ZIPF_GRAPH_SHARE)))
    advice = set(rng.sample(range(slots), round(slots * ZIPF_ADVICE_SHARE)))
    requests += [(item, k in as_graph, k in advice) for k, item in enumerate(chosen)]
    rng.shuffle(requests)
    return requests


#: delta-stream bases: (spec, mutation region).  Beacon-tail edits stay in
#: the beacon, where replay beats a cold refinement; grid edits land anywhere.
DELTA_BASES = [
    (GraphSpec.make("beacon-tail", blob=20, tail=100, seed=1), range(20)),
    (GraphSpec.make("beacon-tail", blob=40, tail=130, seed=2), range(40)),
    (GraphSpec.make("grid", rows=14, cols=14), None),
    (GraphSpec.make("grid", rows=20, cols=20), None),
]
DELTA_STREAMS = 24
DELTA_STREAM_LENGTH = 4
#: mutation streams per pass and base (40 items, so the 11th-largest gap
#: is a real percentile); more on the cheaper beacon-tail base put the
#: median gap inside that base's items rather than between classes
DELTA_PASS_STREAMS = (4, 2, 2, 2)


def delta_pool() -> Dict[str, List[List[dict]]]:
    """delta-stream: per base label, ``DELTA_STREAMS`` seeded mutation streams
    of cumulative edit scripts (edit distance 1..4 against the base)."""
    pool: Dict[str, List[List[dict]]] = {}
    for spec, region in DELTA_BASES:
        base = spec.build()
        streams = []
        for mutation_seed in range(DELTA_STREAMS):
            scripts = mutation_stream(
                base,
                seed=mutation_seed,
                length=DELTA_STREAM_LENGTH,
                kinds=EDGE_KINDS,
                region=list(region) if region is not None else None,
            )
            streams.append([
                {
                    "id": f"{spec.label}|{script.digest()}",
                    "base": spec.to_dict(),
                    "delta": script.to_payload(),
                    "tasks": list(LARGE_TASKS),
                }
                for script in scripts
            ])
        pool[spec.label] = streams
    return pool


def delta_pass(rng: random.Random) -> List[dict]:
    """The items of one delta-stream pass, in the seed's order:
    ``DELTA_PASS_STREAMS`` of each base's mutation streams."""
    pool = delta_pool()
    items = [
        item
        for streams, take in zip(pool.values(), DELTA_PASS_STREAMS)
        for stream in rng.sample(streams, take)
        for item in stream
    ]
    rng.shuffle(items)
    return items


def delta_bases() -> List[dict]:
    return [_item(spec, LARGE_TASKS) for spec, _region in DELTA_BASES]
