"""Regression tests for the fixpoint-precise ``fingerprint()`` and the shallow ``cache_key()``.

The original fingerprint folded a *fixed* 3 rounds of port-aware colour
refinement.  That aliases structurally different graphs whose refinements
only diverge at depth >= 4.  The colliding pair constructed here is explicit:
two leaf-decorated cycles whose leaf positions follow two *distinct* binary
de Bruijn sequences of order 7 (length 128).  Every 7-bit window occurs
exactly once in each sequence, so the multisets of radius-3 neighbourhoods —
everything 3 refinement rounds can see — coincide, while the sequences (and
hence the graphs, and their refinement fixpoints) differ.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.portgraph.graph import PortLabeledGraph
from repro.portgraph import generators


# --------------------------------------------------------------------------- #
# the colliding pair
# --------------------------------------------------------------------------- #
def debruijn_prefer_one(order: int):
    """The greedy ('prefer one') binary de Bruijn sequence of the given order."""
    length = 1 << order
    seen = set()
    sequence = [0] * order
    seen.add(tuple(sequence))
    while len(sequence) < length:
        tail = sequence[-(order - 1):] if order > 1 else []
        if tuple(tail + [1]) not in seen:
            sequence.append(1)
        else:
            sequence.append(0)
        seen.add(tuple(sequence[-order:]))
    return sequence


def debruijn_fkm(order: int):
    """The lexicographically smallest binary de Bruijn sequence (FKM algorithm)."""
    a = [0] * (order + 1)
    sequence = []

    def extend(t: int, p: int) -> None:
        if t > order:
            if order % p == 0:
                sequence.extend(a[1 : p + 1])
        else:
            a[t] = a[t - p]
            extend(t + 1, p)
            for j in range(a[t - p] + 1, 2):
                a[t] = j
                extend(t + 1, t)

    extend(1, 1)
    return sequence


def leaf_decorated_cycle(bits, name: str) -> PortLabeledGraph:
    """A cycle of ``len(bits)`` nodes with a pendant leaf wherever ``bits[i] == 1``.

    Cycle ports are uniform (0 = successor, 1 = predecessor; the leaf edge,
    when present, uses port 2), so the radius-r neighbourhood of cycle node
    ``i`` is determined exactly by the bit window ``bits[i-r .. i+r]``.
    """
    n = len(bits)
    adjacency = [{0: ((i + 1) % n, 1), 1: ((i - 1) % n, 0)} for i in range(n)]
    for i in range(n):
        if bits[i]:
            leaf = len(adjacency)
            adjacency[i][2] = (leaf, 0)
            adjacency.append({0: (i, 2)})
    return PortLabeledGraph(adjacency, name=name)


def three_round_summary(graph: PortLabeledGraph):
    """The pre-fix fingerprint payload: exactly 3 hash rounds, then fold."""

    def digest(payload: str) -> int:
        return int.from_bytes(
            hashlib.blake2b(payload.encode("ascii"), digest_size=8).digest(), "big"
        )

    rows = [graph.adjacency(v) for v in graph.nodes()]
    colors = [len(row) for row in rows]
    for _ in range(3):
        colors = [
            digest(repr((colors[v], tuple((q, colors[u]) for u, q in row))))
            for v, row in enumerate(rows)
        ]
    return (
        graph.num_nodes,
        graph.num_edges,
        tuple(sorted(graph.degree_histogram().items())),
        tuple(sorted(colors)),
    )


class TestFingerprintCollisionFix:
    def test_debruijn_pair_collides_at_three_rounds_but_not_at_the_fixpoint(self):
        first = debruijn_prefer_one(7)
        second = debruijn_fkm(7)
        # genuinely different necklaces (no rotation maps one to the other)
        assert first != second
        rotations = {tuple(first[i:] + first[:i]) for i in range(len(first))}
        assert tuple(second) not in rotations
        g1 = leaf_decorated_cycle(first, "debruijn-prefer-one")
        g2 = leaf_decorated_cycle(second, "debruijn-fkm")
        # the legacy fixed-round scheme cannot tell them apart ...
        assert three_round_summary(g1) == three_round_summary(g2)
        # ... the fixpoint fingerprint can
        assert g1.fingerprint() != g2.fingerprint()

    def test_fingerprint_still_relabeling_invariant(self):
        graph = leaf_decorated_cycle(debruijn_prefer_one(4), "small-necklace")
        n = graph.num_nodes
        perm = [(v * 7 + 3) % n for v in range(n)]
        assert sorted(perm) == list(range(n))
        assert graph.fingerprint() == graph.relabeled(perm).fingerprint()

    def test_fingerprint_is_memoised_and_stable(self):
        graph = generators.asymmetric_cycle(9)
        digest = graph.fingerprint()
        assert digest == graph.fingerprint()
        rebuilt = PortLabeledGraph([graph.adjacency(v) for v in graph.nodes()])
        assert rebuilt.fingerprint() == digest


class TestCacheKey:
    def test_cache_key_is_relabeling_invariant_and_deterministic(self):
        graph = generators.random_connected_graph(10, extra_edges=4, seed=3)
        n = graph.num_nodes
        perm = [(v * 3 + 1) % n for v in range(n)]
        assert sorted(perm) == list(range(n))
        assert graph.cache_key() == graph.relabeled(perm).cache_key()
        rebuilt = PortLabeledGraph([graph.adjacency(v) for v in graph.nodes()])
        assert rebuilt.cache_key() == graph.cache_key()

    def test_cache_key_may_alias_where_fingerprint_does_not(self):
        # the documented trade-off: the shallow bucket key aliases the
        # de Bruijn pair, the precise fingerprint separates it, and the
        # runner cache stays correct because buckets compare exact graphs
        g1 = leaf_decorated_cycle(debruijn_prefer_one(7), "a")
        g2 = leaf_decorated_cycle(debruijn_fkm(7), "b")
        assert g1.cache_key() == g2.cache_key()
        assert g1.fingerprint() != g2.fingerprint()
        assert g1 != g2

    def test_distinct_small_graphs_get_distinct_cache_keys(self):
        keys = {
            generators.path_graph(6).cache_key(),
            generators.star_graph(5).cache_key(),
            generators.cycle_graph(6).cache_key(),
            generators.asymmetric_cycle(6).cache_key(),
            generators.complete_graph(4).cache_key(),
        }
        assert len(keys) == 5


# --------------------------------------------------------------------------- #
# the fingerprint is a pure function of the graph
# --------------------------------------------------------------------------- #
#: beacon-tail members whose refinement fixpoint lies past 64 rounds: a
#: fingerprint once capped at 64 rounds gave these one value on a fresh
#: graph and another after the engine had reached its fixpoint
DEEP_FIXPOINT_SPECS = [
    {"blob": 20, "tail": 140, "seed": 0},
    {"blob": 20, "tail": 150, "seed": 1},
    {"blob": 20, "tail": 200, "seed": 6},
    {"blob": 20, "tail": 220, "seed": 8},
]


class TestFingerprintIsPure:
    @pytest.mark.parametrize("params", DEEP_FIXPOINT_SPECS)
    def test_fresh_refined_and_stored_fingerprints_agree(self, params):
        from repro.runner import GraphSpec
        from repro.store import ArtifactRecord

        spec = GraphSpec.make("beacon-tail", **params)
        graph = spec.build()
        fresh = graph.fingerprint()

        refined = spec.build()
        assert refined.refinement_engine().ensure_stable() > 64
        assert refined.fingerprint() == fresh

        record = ArtifactRecord.from_computed(spec.build(), include_advice=False)
        assert record.fingerprint == fresh
        # adopting the stored value onto a graph that fingerprinted itself
        # must not contradict it
        record.adopt_onto(graph)

    def test_single_node_graph(self):
        # depth 0 is already discrete: the fixpoint is 0 and no pass runs,
        # so depth 1 is never materialised and the digest stops at depth 0
        graph = PortLabeledGraph([{}], validate=False)
        assert graph.refinement_engine().computed_depth == 0
        assert graph.fingerprint().startswith("5395c7c9")
