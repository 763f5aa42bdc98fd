"""The immutable port-labeled graph used throughout the reproduction.

A :class:`PortLabeledGraph` models the paper's network: a simple, undirected,
connected graph on nodes ``0..n-1`` (the integers are *our* handles for
bookkeeping -- the nodes themselves are anonymous and distributed algorithms
in :mod:`repro.sim` never see them) where each node of degree ``d`` labels
its incident edges with distinct ports ``0..d-1``.

The canonical internal representation is a tuple (per node) of tuples (per
port) of ``(neighbour, neighbour_port)`` pairs, so ``graph.endpoint(v, p)``
is an O(1) lookup.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .validation import PortLabelingError, validate_adjacency

__all__ = ["PortLabeledGraph"]

Endpoint = Tuple[int, int]

class PortLabeledGraph:
    """An immutable, simple, port-labeled graph.

    Parameters
    ----------
    adjacency:
        Sequence over nodes; entry ``v`` maps ports to
        ``(neighbour, neighbour_port)`` pairs (either as a mapping or as a
        sequence indexed by port).
    name:
        Optional human-readable name (used in reprs and experiment tables).
    validate:
        Validate the model invariants (contiguous ports, reciprocity,
        simplicity, connectivity).  Families that were just validated by
        their builder pass ``validate=False`` to avoid re-validating huge
        graphs twice.
    """

    __slots__ = (
        "_adj",
        "_num_edges",
        "_name",
        "_max_degree",
        "_fingerprint",
        "_cache_key",
        "_csr",
        "_engine",
    )

    def __init__(self, adjacency: Sequence, *, name: str = "", validate: bool = True) -> None:
        if validate:
            validate_adjacency(adjacency, require_contiguous_ports=True, require_connected=True)
        adj: List[Tuple[Endpoint, ...]] = []
        for entry in adjacency:
            if type(entry) is tuple and all(type(pair) is tuple for pair in entry):
                # already-canonical row (e.g. shared from another graph's
                # adjacency by the copy-on-write delta path): adopt as-is
                row = entry
            elif isinstance(entry, Mapping):
                degree = len(entry)
                row = tuple(tuple(entry[p]) for p in range(degree))
            else:
                row = tuple(tuple(pair) for pair in entry)
            adj.append(row)
        self._adj: Tuple[Tuple[Endpoint, ...], ...] = tuple(adj)
        self._num_edges = sum(len(row) for row in self._adj) // 2
        self._name = name
        self._max_degree = max((len(row) for row in self._adj), default=0)
        self._fingerprint: Optional[str] = None
        self._cache_key: Optional[str] = None
        self._csr = None
        self._engine = None

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        """Human-readable name of the graph."""
        return self._name

    @property
    def num_nodes(self) -> int:
        """Number of nodes ``n``."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of (undirected) edges ``m``."""
        return self._num_edges

    @property
    def max_degree(self) -> int:
        """Maximum degree Δ of the graph."""
        return self._max_degree

    @property
    def min_degree(self) -> int:
        """Minimum degree of the graph."""
        return min((len(row) for row in self._adj), default=0)

    def nodes(self) -> range:
        """Iterate over node handles ``0..n-1``."""
        return range(len(self._adj))

    def degree(self, v: int) -> int:
        """Degree of node ``v``."""
        return len(self._adj[v])

    def degree_sequence(self) -> Tuple[int, ...]:
        """Degrees of all nodes, indexed by node handle."""
        return tuple(len(row) for row in self._adj)

    def endpoint(self, v: int, port: int) -> Endpoint:
        """Return ``(u, q)``: the neighbour reached from ``v`` via ``port`` and the port back."""
        return self._adj[v][port]

    def neighbor(self, v: int, port: int) -> int:
        """The neighbour reached from ``v`` by taking ``port``."""
        return self._adj[v][port][0]

    def ports(self, v: int) -> range:
        """The ports available at node ``v`` (always ``0..deg(v)-1``)."""
        return range(len(self._adj[v]))

    def neighbors(self, v: int) -> Tuple[int, ...]:
        """Neighbours of ``v`` in port order."""
        return tuple(pair[0] for pair in self._adj[v])

    def port_to(self, v: int, u: int) -> int:
        """The port at ``v`` whose edge leads to ``u``.

        Raises ``KeyError`` if ``u`` is not a neighbour of ``v``.
        """
        for port, (w, _q) in enumerate(self._adj[v]):
            if w == u:
                return port
        raise KeyError(f"{u} is not a neighbour of {v}")

    def has_edge(self, v: int, u: int) -> bool:
        """Whether ``{v, u}`` is an edge."""
        return any(w == u for w, _q in self._adj[v])

    def edge_ports(self, v: int, u: int) -> Tuple[int, int]:
        """The pair ``(port at v, port at u)`` of the edge ``{v, u}``."""
        p = self.port_to(v, u)
        return p, self._adj[v][p][1]

    def adjacency(self, v: int) -> Tuple[Endpoint, ...]:
        """The full port table of ``v`` (tuple indexed by port)."""
        return self._adj[v]

    def edges(self) -> Iterator[Tuple[int, int, int, int]]:
        """Iterate over edges as ``(v, port_at_v, u, port_at_u)`` with ``v < u``."""
        for v, row in enumerate(self._adj):
            for p, (u, q) in enumerate(row):
                if v < u:
                    yield v, p, u, q

    def csr(self):
        """The flat-array (CSR) view of the graph, built lazily and memoised.

        Returns a :class:`repro.kernel.csr.CSRGraph`: four int arrays
        (``offsets`` / ``neighbors`` / ``ports`` / ``reverse_ports``) that the
        compute kernel (refinement, block-cut tree, BFS, message routing)
        walks instead of the tuple-of-tuples port tables.  The view is
        immutable and shared by every consumer of this graph instance.
        """
        if self._csr is None:
            from ..kernel.csr import build_csr  # lazy: keeps graph construction import-light

            self._csr = build_csr(self)
        return self._csr

    def refinement_engine(self):
        """The graph's partition-refinement engine, memoised.

        Returns the engine shared by every consumer of this instance:
        :meth:`fingerprint` (which refines to the fixpoint),
        :class:`repro.views.refinement.ViewRefinement` (the query facade) and
        the runner's cache, so the graph is refined at most once per instance
        no matter who asks first.  Built by
        :func:`repro.kernel.refine.make_refinement`, which picks the
        incremental python engine or its byte-identical vectorised numpy twin
        per the active kernel backend; the binding is per instance.
        """
        if self._engine is None:
            from ..kernel.refine import make_refinement  # lazy, as in csr()

            self._engine = make_refinement(self.csr())
        return self._engine

    def adopt_fingerprint(self, fingerprint: str) -> None:
        """Install a precomputed :meth:`fingerprint` value without refining.

        Used by the artifact store when restoring a graph whose fingerprint
        is already certified by its content address: seeding it here means a
        cold process never pays the refine-to-fixpoint cost just to *name*
        a graph it is about to warm-start anyway.  Refuses to overwrite a
        fingerprint that was already computed (or adopted) differently.
        """
        if self._fingerprint is not None and self._fingerprint != fingerprint:
            raise ValueError("adopted fingerprint contradicts the computed one")
        self._fingerprint = fingerprint

    def adopt_csr(self, csr) -> bool:
        """Install a prebuilt CSR view instead of deriving one lazily.

        Used by the artifact store when decoding a record that carries the
        flat arrays; a no-op (returning ``False``) if this instance already
        built its own view.  The caller guarantees the arrays describe this
        exact adjacency -- for store records the content address does.
        """
        if self._csr is not None:
            return False
        self._csr = csr
        return True

    def adopt_refinement_tables(self, tables: Sequence[Sequence[int]], stable_depth: int) -> bool:
        """Install precomputed view-refinement partitions without refining.

        ``tables`` are the canonical per-depth colour tables (depth 0 up to
        at least ``stable_depth``) exactly as
        :meth:`repro.views.refinement.ViewRefinement.colors` would return
        them; ``stable_depth`` is the refinement fixpoint.  On success the
        graph's memoised :meth:`refinement_engine` serves every depth query
        from the installed tables with **zero refinement passes**, which is
        how a store-warm process replays sweeps without refining.

        Returns ``False`` (and installs nothing) if this instance already
        built its engine -- the live engine's state is at least as deep.
        """
        if self._engine is not None:
            return False
        from ..kernel.refine import refinement_from_stored  # lazy, as in csr()

        self._engine = refinement_from_stored(self.csr(), tables, stable_depth)
        return True

    def adopt_engine(self, engine) -> bool:
        """Install a live refinement engine built elsewhere for this graph.

        Used by the delta recompute path: the engine returned by
        :func:`repro.kernel.refine.refinement_delta` already holds the
        mutated graph's per-depth partitions, so installing it here (instead
        of letting :meth:`refinement_engine` build a cold one) is what makes
        every later depth query replay-priced.  The engine must be bound to
        this instance's CSR view — the caller pairs :meth:`adopt_csr` with
        this.  Returns ``False`` (installing nothing) if an engine already
        exists.
        """
        if self._engine is not None:
            return False
        if engine.csr is not self.csr():
            raise ValueError("adopted engine is not bound to this graph's CSR view")
        self._engine = engine
        return True

    # ------------------------------------------------------------------ #
    # structural helpers
    # ------------------------------------------------------------------ #
    def relabeled(self, mapping: Mapping[int, int] | Sequence[int], *, name: str | None = None) -> "PortLabeledGraph":
        """Return a copy with node handles renamed by ``mapping`` (a bijection)."""
        n = self.num_nodes
        if isinstance(mapping, Mapping):
            perm = [mapping[v] for v in range(n)]
        else:
            perm = list(mapping)
        if sorted(perm) != list(range(n)):
            raise ValueError("relabeling must be a bijection on node handles")
        new_adj: List[Dict[int, Endpoint]] = [dict() for _ in range(n)]
        for v, row in enumerate(self._adj):
            for p, (u, q) in enumerate(row):
                new_adj[perm[v]][p] = (perm[u], q)
        return PortLabeledGraph(new_adj, name=self._name if name is None else name, validate=False)

    def fingerprint(self) -> str:
        """A canonical structural fingerprint of the graph (hex digest).

        The fingerprint is invariant under relabeling of the node handles:
        ``g.fingerprint() == g.relabeled(perm).fingerprint()`` for every
        permutation ``perm``, because it hashes the *sorted multiset* of
        port-aware colour-refinement signatures rather than anything indexed
        by handle.  It is sensitive to everything a handle-blind observer can
        see -- node/edge counts, degrees, and the port numbers on both sides
        of every edge, refined *to the fixpoint* of port-aware colour
        refinement -- which makes it the cache key used by
        :mod:`repro.runner.cache` to share :class:`~repro.views.refinement.ViewRefinement`
        instances across repeated sweeps.  (Graphs that colour refinement
        cannot tell apart share a fingerprint; consumers that need exact
        identity additionally compare adjacency, as the runner cache does.)

        Refinement runs to the fixpoint ``stable``; the digest folds in the
        class-count sequence of depths ``0..stable+1`` plus the sorted
        multiset of ``(class label, class size)`` pairs at depth
        ``stable+1``, one round *past* stabilisation.  It is a pure function
        of the graph: which engine state it is computed from (fresh,
        partly refined, or restored from the store) never changes it.
        Fingerprinting a graph whose fixpoint takes ~n/2 passes (long
        quasi-symmetric cycles) costs that many passes -- the same ones any
        ψ_Z query or store write of the graph pays anyway.
        An earlier scheme truncated at a fixed 3 refinement rounds, which
        aliased structurally different graphs whose refinements only diverge
        at depth >= 4 -- see ``tests/test_portgraph_fingerprint.py`` for an
        explicit colliding pair and the regression test.

        The digest is stable across processes and Python versions: it is
        computed with BLAKE2b over an explicit byte encoding, never with the
        salted built-in ``hash``.  The result is memoised on the instance.
        """
        if self._fingerprint is not None:
            return self._fingerprint

        def _digest(payload: str) -> int:
            return int.from_bytes(
                hashlib.blake2b(payload.encode("ascii"), digest_size=8).digest(), "big"
            )

        engine = self.refinement_engine()
        # One round past stabilisation is folded in: the partition no longer
        # splits there, but the label chain still deepens by one
        # neighbourhood radius, which is what separates graphs whose
        # *partitions* agree while their signature structures differ (the old
        # 3-round aliasing families).  Detecting the fixpoint takes the pass
        # that does not split, so depth stable+1 is materialised -- unless
        # depth 0 is already discrete, where no pass ever runs.
        stable = engine.ensure_stable()
        final_depth = min(engine.computed_depth, stable + 1)
        csr = self.csr()
        # Invariant label chain, one value per class per depth: the label of a
        # class is the digest of its (port-ordered) signature over the labels
        # of the previous depth, read off any representative member -- all
        # members share that signature by definition of the partition.
        labels: List[int] = [
            len(self._adj[group[0]]) for group in engine.members_at(0)
        ]
        for depth in range(1, final_depth + 1):
            previous_colors = engine.colors_at(depth - 1)
            new_labels: List[int] = []
            for group in engine.members_at(depth):
                rep = group[0]
                base = csr.offsets[rep]
                signature = (
                    labels[previous_colors[rep]],
                    tuple(
                        (csr.reverse_ports[i], labels[previous_colors[csr.neighbors[i]]])
                        for i in range(base, csr.offsets[rep + 1])
                    ),
                )
                new_labels.append(_digest(repr(signature)))
            labels = new_labels
        final_members = engine.members_at(final_depth)
        summary = (
            self.num_nodes,
            self.num_edges,
            tuple(sorted(self.degree_histogram().items())),
            engine.class_counts,
            tuple(sorted((labels[c], len(final_members[c])) for c in range(len(labels)))),
        )
        self._fingerprint = hashlib.sha256(repr(summary).encode("ascii")).hexdigest()
        return self._fingerprint

    def cache_key(self) -> str:
        """A fast, relabeling-invariant *bucket* key (hex digest).

        Three port-aware colour-refinement hash rounds over the adjacency --
        O(n + m), no partition engine involved.  Unlike :meth:`fingerprint`
        it may alias structurally different graphs whose refinements only
        diverge at depth >= 4; that is fine for its one consumer, the
        runner's :class:`~repro.runner.cache.RefinementCache`, which resolves
        every bucket by exact labeled-graph equality anyway.  Keeping the
        bucket key shallow means a warm cache lookup costs O(n + m), not a
        refinement to the fixpoint.
        """
        if self._cache_key is not None:
            return self._cache_key

        def _digest(payload: str) -> int:
            return int.from_bytes(
                hashlib.blake2b(payload.encode("ascii"), digest_size=8).digest(), "big"
            )

        colors: List[int] = [len(row) for row in self._adj]
        for _ in range(3):
            colors = [
                _digest(repr((colors[v], tuple((q, colors[u]) for u, q in row))))
                for v, row in enumerate(self._adj)
            ]
        summary = (
            self.num_nodes,
            self.num_edges,
            tuple(sorted(self.degree_histogram().items())),
            tuple(sorted(colors)),
        )
        self._cache_key = hashlib.sha256(repr(summary).encode("ascii")).hexdigest()
        return self._cache_key

    def degree_histogram(self) -> Dict[int, int]:
        """Mapping ``degree -> number of nodes of that degree``."""
        hist: Dict[int, int] = {}
        for row in self._adj:
            hist[len(row)] = hist.get(len(row), 0) + 1
        return hist

    def nodes_of_degree(self, d: int) -> List[int]:
        """Node handles with degree exactly ``d``."""
        return [v for v in self.nodes() if len(self._adj[v]) == d]

    # ------------------------------------------------------------------ #
    # dunder protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._adj)

    def __eq__(self, other: object) -> bool:
        """Exact labeled equality: same node handles, same ports, same edges."""
        if not isinstance(other, PortLabeledGraph):
            return NotImplemented
        return self._adj == other._adj

    def __hash__(self) -> int:
        return hash(self._adj)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self._name!r}" if self._name else ""
        return (
            f"<PortLabeledGraph{label} n={self.num_nodes} m={self.num_edges} "
            f"Δ={self.max_degree}>"
        )

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_edge_list(
        cls,
        num_nodes: int,
        edges: Iterable[Tuple[int, int, int, int]],
        *,
        name: str = "",
        validate: bool = True,
    ) -> "PortLabeledGraph":
        """Build a graph from ``(v, port_at_v, u, port_at_u)`` tuples."""
        adj: List[Dict[int, Endpoint]] = [dict() for _ in range(num_nodes)]
        for v, pv, u, pu in edges:
            if pv in adj[v]:
                raise PortLabelingError(f"duplicate port {pv} at node {v}")
            if pu in adj[u]:
                raise PortLabelingError(f"duplicate port {pu} at node {u}")
            adj[v][pv] = (u, pu)
            adj[u][pu] = (v, pv)
        return cls(adj, name=name, validate=validate)
