"""Process-wide memoisation of :class:`~repro.views.refinement.ViewRefinement`.

Every layer of the library (feasibility checks, the four ψ_Z computations,
the twin queries of the lower-bound lemmas, graph summaries) is driven by the
same partition-refinement object, and a refinement is pure -- it depends only
on the graph.  Before this cache existed, each benchmark script and each
``all_election_indices`` call rebuilt the refinement from scratch, so a sweep
that touches the same graph from five angles paid for five refinements.

:class:`RefinementCache` is a small LRU keyed on the *shallow bucket key* of
the graph (:meth:`repro.portgraph.graph.PortLabeledGraph.cache_key` -- three
O(n + m) hash rounds, deliberately cheaper than the fixpoint-precise
:meth:`~repro.portgraph.graph.PortLabeledGraph.fingerprint`, so a warm
lookup never refines).  Because the key is relabeling-invariant and shallow
it may collide for graphs with different node handles (isomorphic copies, or
structurally different graphs whose refinements only diverge deep), and a
refinement's colour lists are indexed by handle -- so each key maps to a
*bucket* of ``(graph, refinement)`` pairs compared by exact labeled
equality.  A hit therefore always returns a refinement that is correct for
the exact graph asked about, while the key keeps lookups O(1) in the number
of distinct graphs seen.

The module-level singleton :data:`refinement_cache` is what the rest of the
library uses: :func:`shared_refinement` is the default source of refinements
in :mod:`repro.core.feasibility`, :mod:`repro.core.election_index` and the
experiment runner, so one memoised refinement per graph serves ψ_S / ψ_PE /
ψ_PPE / ψ_CPPE queries, feasibility and twin queries alike.

Counters (hits, misses, evictions, and the number of refinement *passes*
performed in this process since the last :meth:`RefinementCache.clear`)
are exposed via :meth:`RefinementCache.stats`; a repeated sweep over the
same spec must not increase ``refinement_passes``, which is how the tests
and the ``bench`` CLI certify cache reuse.  The pass count is the kernel's
process-wide counter (:func:`repro.kernel.refinement_pass_count`), so it
also sees refinements of graphs the cache never held -- a warm request
that refined a throwaway copy of a cached graph would show up.

A second index maps :class:`~repro.runner.spec.GraphSpec` values to
entries (:meth:`RefinementCache.spec_entry`), so a repeat spec query finds
its entry without building the graph or hashing its adjacency.

Since the store subsystem (PR 3) the cache can additionally be backed by a
persistent :class:`~repro.store.store.ArtifactStore`
(:meth:`RefinementCache.attach_store`): a miss then *reads through* the
store -- looked up by the same shallow key, resolved by exact graph
equality, and warm-started via the record's stored partitions so not a
single refinement pass is paid -- and computed entries are *written
through* with :meth:`RefinementCache.persist` /
:meth:`RefinementCache.flush_to_store`.  That is how a cold process (a CI
run, a fresh benchmark, a service worker) inherits every refinement and
ψ_Z search any previous process performed.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from ..kernel import GraphKernel, refinement_pass_count
from ..portgraph.graph import PortLabeledGraph
from ..store import ArtifactRecord, ArtifactStore
from ..views.refinement import ViewRefinement

__all__ = [
    "CacheEntry",
    "RefinementCache",
    "refinement_cache",
    "shared_refinement",
    "shared_kernel",
]

#: Default number of distinct bucket keys kept by the process-wide cache.
DEFAULT_MAXSIZE = 128


def _hashable(spec) -> bool:
    """Whether ``spec`` can key the spec index (dict-valued params cannot)."""
    try:
        hash(spec)
    except TypeError:
        return False
    return True


class CacheEntry:
    """One cached graph: its refinement and kernel plus a memo of derived results.

    ``memo`` maps hashable query keys -- e.g. ``("psi", "PPE", max_depth,
    max_states)`` or ``("feasible",)`` -- to previously computed answers.
    Every answer memoised here is a pure function of the graph (and of the
    key's own parameters), so replaying a sweep can skip not only the
    refinement passes but also the expensive PPE/CPPE joint searches.

    ``kernel`` is the graph's :class:`~repro.kernel.GraphKernel`: the lazily
    built CSR view, block-cut tree and per-source BFS distance arrays.  It is
    cached alongside the refinement so a warm sweep skips block-cut-tree
    construction (ψ_PE) and distance precomputation (ψ_PPE/ψ_CPPE pruning)
    exactly as it skips refinement passes.
    """

    __slots__ = ("graph", "refinement", "kernel", "memo", "lineage", "specs")

    def __init__(self, graph: PortLabeledGraph, refinement: ViewRefinement) -> None:
        self.graph = graph
        self.refinement = refinement
        self.kernel = GraphKernel(graph)
        self.memo: Dict[Tuple, object] = {}
        #: ``(parent_fingerprint, delta_digest)`` for delta-derived entries
        #: (see :meth:`RefinementCache.delta_entry`), else ``None``.  The
        #: write-through path records it on the persisted record.
        self.lineage: Optional[Tuple[str, str]] = None
        #: the :class:`~repro.runner.spec.GraphSpec` keys indexing this entry
        self.specs: List[object] = []

    def estimated_bytes(self) -> int:
        """Rough retained footprint of this entry (bytes).

        Sums the refinement engine's per-depth state, the kernel objects
        (CSR arrays, block-cut tree, BFS distance arrays) and a flat charge
        per memo entry.  Evicting the entry releases all of it together --
        the engine and CSR view are memoised on the graph instance, whose
        only long-lived reference is this entry.
        """
        return (
            self.graph.refinement_engine().estimated_bytes()
            + self.kernel.estimated_bytes()
            + 64 * len(self.memo)
        )


class RefinementCache:
    """An LRU cache of :class:`ViewRefinement` objects, one per exact graph.

    ``maxsize`` bounds the total number of *entries* (exact graphs), not
    bucket keys: a bucket of relabeled copies of one graph is evicted
    entry-by-entry like everything else.

    The LRU bookkeeping and the counters are guarded by a lock, so lookups
    may be issued from multiple threads; the *returned* objects
    (:class:`ViewRefinement`, ``entry.memo``) are not themselves
    synchronised, so concurrent queries about the same graph at uncomputed
    depths should be serialised by the caller.  The library's own
    parallelism uses ``multiprocessing`` (one private cache per worker
    process), which avoids the issue entirely.
    """

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE, *, admission: str = "always") -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be at least 1")
        self._maxsize = maxsize
        # bucket key -> list of entries; the bucket resolves key
        # collisions by exact labeled-graph equality.
        self._buckets: "OrderedDict[str, List[CacheEntry]]" = OrderedDict()
        self._num_entries = 0
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._passes_base = refinement_pass_count()
        self._evicted_bytes = 0
        # GraphSpec -> live entry of the graph it builds
        self._specs: Dict[object, CacheEntry] = {}
        self._store: Optional[ArtifactStore] = None
        self._store_hits = 0
        self._store_misses = 0
        # admission policy state (see set_admission)
        self._admission = ""
        self._probation: "OrderedDict[str, List[CacheEntry]]" = OrderedDict()
        self._probation_entries = 0
        self._admissions = 0
        self._admission_rejects = 0
        self.set_admission(admission)

    # ------------------------------------------------------------------ #
    @property
    def maxsize(self) -> int:
        return self._maxsize

    @property
    def admission(self) -> str:
        return self._admission

    def set_admission(self, policy: str) -> str:
        """Select the admission policy; returns the previous one.

        ``"always"`` (the default) admits every miss straight into the main
        LRU -- the historical behaviour, right for sweeps that enumerate
        distinct graphs once each.  ``"second-touch"`` is frequency-
        observing, for zipf-shaped service traffic: a first-touch entry
        lands in a small probation FIFO and is promoted to the main LRU
        only when a *second request* asks for it, so a stream of one-hit
        wonders churns the probation ring instead of evicting hot
        residents.  Internal lookups (the write-through of
        :meth:`persist`) deliberately do not count as request touches.
        """
        if policy not in ("always", "second-touch"):
            raise ValueError(f"unknown admission policy: {policy!r}")
        with self._lock:
            previous, self._admission = self._admission, policy
        return previous

    def _probation_capacity(self) -> int:
        # big enough that an entry survives until its own write-through,
        # small enough that scan traffic cannot hold meaningful memory
        return min(8, self._maxsize)

    def __len__(self) -> int:
        with self._lock:
            return self._num_entries

    def entry(self, graph: PortLabeledGraph, *, spec=None) -> CacheEntry:
        """The cache entry of ``graph`` (created on first request).

        ``spec``, the :class:`~repro.runner.spec.GraphSpec` that built
        ``graph``, indexes the entry for :meth:`spec_entry` -- unless the
        entry holds an equal graph under another name, whose name-bearing
        outputs (map advice, delta names) would then leak into the spec's
        answers.

        With a store attached, an in-memory miss first *reads through* the
        store: a record of an exactly equal graph warm-starts the entry
        (partitions installed, fingerprint seeded, ψ/feasibility memo
        pre-filled) so the cold process performs zero refinement passes.
        The store lookup happens under the cache lock -- it is a small read
        of a content-addressed file, and serialising it also means
        concurrent threads asking for the same graph trigger one disk read,
        not several.
        """
        return self._entry(graph, request=True, spec=spec)

    def spec_entry(self, spec, *, request: bool = True) -> Optional[CacheEntry]:
        """The live entry of ``spec.build()``, found without building it.

        Returns ``None`` when no live entry is indexed under ``spec``; the
        caller then builds the graph and passes ``spec`` to :meth:`entry`.
        A hit counts, refreshes and (under second-touch admission) promotes
        the entry exactly as :meth:`entry` of the built graph would;
        ``request=False`` is a peek that touches no counter.
        """
        if not _hashable(spec):
            return None
        with self._lock:
            entry = self._specs.get(spec)
            if entry is None or not request:
                return entry
            return self._find_locked(entry.graph.cache_key(), entry.graph, request=True)

    def _find_locked(
        self, key: str, graph: PortLabeledGraph, *, request: bool
    ) -> Optional[CacheEntry]:
        """The live entry of ``graph`` under ``key`` (a counted hit), or ``None``."""
        bucket = self._buckets.get(key)
        if bucket is not None:
            self._buckets.move_to_end(key)
            for stored in bucket:
                if stored.graph is graph or stored.graph == graph:
                    self._hits += 1
                    return stored
        probation_bucket = self._probation.get(key)
        if probation_bucket is not None:
            for stored in probation_bucket:
                if stored.graph is graph or stored.graph == graph:
                    self._hits += 1
                    if request:
                        # second observed request: promote to the main LRU
                        probation_bucket.remove(stored)
                        if not probation_bucket:
                            del self._probation[key]
                        self._probation_entries -= 1
                        self._admit_locked(key, stored)
                        self._admissions += 1
                    return stored
        return None

    def _entry(self, graph: PortLabeledGraph, *, request: bool, spec=None) -> CacheEntry:
        key = graph.cache_key()
        with self._lock:
            entry = self._find_locked(key, graph, request=request)
            if entry is None:
                entry = self._create_locked(key, graph)
            if (
                spec is not None
                and entry.graph.name == graph.name
                and _hashable(spec)
                and self._specs.setdefault(spec, entry) is entry
                and spec not in entry.specs
            ):
                entry.specs.append(spec)
            return entry

    def _create_locked(self, key: str, graph: PortLabeledGraph) -> CacheEntry:
        """A miss: the entry of ``graph``, warm-started from the store if it can be."""
        self._misses += 1
        memo_seed = None
        if self._store is not None:
            record = self._store.load_for_graph(graph)
            if record is not None:
                record.adopt_onto(graph)
                memo_seed = record.memo_entries()
                self._store_hits += 1
            else:
                self._store_misses += 1
        entry = CacheEntry(graph, ViewRefinement(graph))
        if memo_seed:
            entry.memo.update(memo_seed)
        if self._admission == "second-touch":
            self._probation.setdefault(key, []).append(entry)
            self._probation_entries += 1
            while self._probation_entries > self._probation_capacity():
                oldest_key = next(iter(self._probation))
                oldest_bucket = self._probation[oldest_key]
                rejected = oldest_bucket.pop(0)
                if not oldest_bucket:
                    del self._probation[oldest_key]
                self._probation_entries -= 1
                self._admission_rejects += 1
                self._drop_locked(rejected)
        else:
            self._admit_locked(key, entry)
        return entry

    def _drop_locked(self, entry: CacheEntry) -> None:
        """Account for an entry leaving the cache and unindex its specs."""
        self._evicted_bytes += entry.estimated_bytes()
        for spec in entry.specs:
            if self._specs.get(spec) is entry:
                del self._specs[spec]
        entry.specs = []

    def _admit_locked(self, key: str, entry: CacheEntry) -> None:
        """Insert ``entry`` into the main LRU and evict down to ``maxsize``."""
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = [entry]
        else:
            bucket.append(entry)
        self._buckets.move_to_end(key)
        self._num_entries += 1
        while self._num_entries > self._maxsize:
            # evict the oldest entry of the least-recently-used bucket;
            # the entry's kernel objects (CSR, block-cut tree, BFS
            # distance arrays) go with it, and their footprint is
            # accounted in evicted_bytes
            oldest_key = next(iter(self._buckets))
            oldest_bucket = self._buckets[oldest_key]
            evicted = oldest_bucket.pop(0)
            if not oldest_bucket:
                del self._buckets[oldest_key]
            self._num_entries -= 1
            self._evictions += 1
            self._drop_locked(evicted)

    def get(self, graph: PortLabeledGraph) -> ViewRefinement:
        """The memoised refinement of ``graph`` (created on first request)."""
        return self.entry(graph).refinement

    # ------------------------------------------------------------------ #
    # delta-derived entries (the incremental recompute path)
    # ------------------------------------------------------------------ #
    def delta_entry(
        self, base_graph: PortLabeledGraph, delta, *, events: Optional[list] = None
    ) -> CacheEntry:
        """The entry of ``delta`` applied to ``base_graph``, replayed not recomputed.

        Applies the :class:`~repro.portgraph.delta.GraphDelta`, then derives
        the mutated graph's entry from the base's instead of refining cold:
        the CSR view is patched (:meth:`~repro.kernel.csr.CSRGraph.patched`),
        the partitions are replayed over the dirty ball
        (:func:`~repro.kernel.refine.refinement_delta`) and the kernel memos
        are carried selectively (:meth:`~repro.kernel.GraphKernel.derived`).
        If the exact mutated graph is already cached (memory or store), that
        entry wins and no replay happens.

        **Memo invalidation.**  A derived entry never inherits the base's
        ψ/advice memos: every ψ index and advice bitstring is supported by
        *all* classes of the graph, and a non-empty delta dirties at least
        one, so inheriting them is exactly the staleness the write-through
        regression test pins down.  The one class-local survivor is
        ``("feasible",)`` — a pure function of the fixpoint partition — which
        carries over only when the replay proves the partition unchanged
        (same handles, byte-equal canonical tables).

        The entry's :attr:`~CacheEntry.lineage` names the base fingerprint
        and delta digest; :meth:`persist` stamps both onto the stored record.

        ``events``, when given, receives the delta-protocol events this call
        performed (``cache_hit``, or ``base_hit`` / ``memos_invalidated`` /
        ``replayed``) in order -- the service replays them through
        :class:`~repro.service.protocol.DeltaStatus` so the lifecycle the
        model checker verifies is the lifecycle the cache actually ran.
        """
        result = delta.apply_to(base_graph)
        graph = result.graph
        key = graph.cache_key()
        with self._lock:
            for collection in (self._buckets.get(key), self._probation.get(key)):
                if collection:
                    for stored in collection:
                        if stored.graph == graph:
                            self._hits += 1
                            if events is not None:
                                events.append("cache_hit")
                            return stored
        if self._store is not None:
            # an exact record of the mutated graph beats a replay outright
            record = self._store.load_for_graph(graph)
            if record is not None:
                with self._lock:
                    self._store_hits += 1
                record.adopt_onto(graph)
                entry = CacheEntry(graph, ViewRefinement(graph))
                entry.memo.update(record.memo_entries())
                with self._lock:
                    self._admit_locked(key, entry)
                if events is not None:
                    events.append("cache_hit")
                return entry

        base_entry = self._entry(base_graph, request=False)
        if events is not None:
            events.append("base_hit")
        base_engine = base_entry.graph.refinement_engine()
        from ..kernel.refine import refinement_delta  # lazy, mirrors graph.py

        patched = base_entry.graph.csr().patched(result)
        graph.adopt_csr(patched)
        # the fresh entry's memo starts empty: this IS the invalidation --
        # none of the base's ψ/advice memos survive into the derived entry
        if events is not None:
            events.append("memos_invalidated")
        engine = refinement_delta(base_engine, patched, result.node_map, result.touched)
        graph.adopt_engine(engine)
        if events is not None:
            events.append("replayed")
        entry = CacheEntry(graph, ViewRefinement(graph))
        entry.kernel = GraphKernel.derived(
            graph, base_entry.kernel, topology_changed=result.topology_changed
        )
        entry.lineage = (base_entry.graph.fingerprint(), delta.digest())
        base_feasible = base_entry.memo.get(("feasible",))
        if (
            base_feasible is not None
            and not result.renamed
            and len(result.node_map) == base_graph.num_nodes
            and engine.class_counts == base_engine.class_counts
            and engine.canonical_tables() == base_engine.canonical_tables()
        ):
            entry.memo[("feasible",)] = base_feasible
        with self._lock:
            self._misses += 1
            # computing the base above may have admitted an entry for this
            # very labeling (a delta that composes back to the identity):
            # replace it, or a later lookup -- persist() in particular --
            # would resolve the lineage-less duplicate first.  Equality is
            # exact labeled equality, so the duplicate's memos answer for
            # the same graph and carry over soundly.
            for collection, counter in (
                (self._buckets, "_num_entries"),
                (self._probation, "_probation_entries"),
            ):
                bucket = collection.get(key)
                if not bucket:
                    continue
                for stored in list(bucket):
                    if stored.graph == graph:
                        bucket.remove(stored)
                        setattr(self, counter, getattr(self, counter) - 1)
                        self._drop_locked(stored)
                        for memo_key, value in stored.memo.items():
                            entry.memo.setdefault(memo_key, value)
                if not bucket:
                    del collection[key]
            self._admit_locked(key, entry)
        return entry

    def clear(self) -> None:
        """Drop all entries and reset the counters (the store and the
        admission policy stay as configured)."""
        with self._lock:
            self._buckets.clear()
            self._num_entries = 0
            self._probation.clear()
            self._probation_entries = 0
            self._hits = 0
            self._misses = 0
            self._evictions = 0
            self._passes_base = refinement_pass_count()
            self._evicted_bytes = 0
            self._specs.clear()
            self._store_hits = 0
            self._store_misses = 0
            self._admissions = 0
            self._admission_rejects = 0

    # ------------------------------------------------------------------ #
    # persistent store backend
    # ------------------------------------------------------------------ #
    @property
    def store(self) -> Optional[ArtifactStore]:
        """The attached persistent artifact store, if any."""
        return self._store

    def attach_store(self, store: Optional[ArtifactStore]) -> None:
        """Back this cache with a persistent store (``None`` detaches).

        Attaching only affects *future* lookups; existing entries stay
        in memory and can be persisted with :meth:`flush_to_store`.
        """
        with self._lock:
            self._store = store

    def persist(self, graph: PortLabeledGraph, *, include_advice: bool = True) -> bool:
        """Write-through the entry of ``graph`` to the attached store.

        Ensures the entry exists (computing it if needed), snapshots it into
        an :class:`~repro.store.record.ArtifactRecord` -- refined to the
        fixpoint, with every memoised ψ/feasibility outcome -- merges it
        with any record already stored for the fingerprint, and puts the
        result.  Returns whether bytes were written (``False`` both when no
        store is attached and when the stored record was already
        up to date).
        """
        store = self._store
        if store is None:
            return False
        # an internal lookup, not a request: under "second-touch" admission
        # the write-through of a freshly computed entry must not count as
        # the promoting touch, or every one-hit item would self-admit
        entry = self._entry(graph, request=False)
        lineage = entry.lineage or ("", "")
        # the record's ψ/advice sections come from entry.memo alone: a
        # delta-derived entry starts with an empty memo (its base's ψ/advice
        # are never inherited — see delta_entry), so nothing stale from the
        # parent fingerprint can reach the store through this write
        record = ArtifactRecord.from_computed(
            entry.graph,
            memo=entry.memo,
            include_advice=include_advice,
            parent_fingerprint=lineage[0],
            delta_digest=lineage[1],
        )
        # merge with what the store holds for this *exact labeled graph* --
        # resolved through the same lookup the warm-start path uses, so a
        # labeling spilled behind a colliding fingerprint merges with its
        # own record, never with the primary owner's
        existing = store.load_for_graph(entry.graph)
        if existing is not None:
            try:
                record = record.merged_with(existing)
            except ValueError:  # pragma: no cover - defensive
                pass
        return store.put(record)

    def flush_to_store(self) -> int:
        """Persist every live entry; returns how many records were written."""
        if self._store is None:
            return 0
        with self._lock:
            entries = [entry for bucket in self._buckets.values() for entry in bucket]
            entries += [entry for bucket in self._probation.values() for entry in bucket]
        written = 0
        for entry in entries:
            if self.persist(entry.graph):
                written += 1
        return written

    # ------------------------------------------------------------------ #
    @property
    def hits(self) -> int:
        return self._hits

    @property
    def misses(self) -> int:
        return self._misses

    @property
    def evictions(self) -> int:
        return self._evictions

    @property
    def refinement_passes(self) -> int:
        """Refinement passes performed in this process since the last :meth:`clear`.

        Read from the kernel's process-wide counter, so it counts every
        engine -- cached entries, evicted ones, and throwaway graphs the
        cache never held -- and is monotone between clears: if it is
        unchanged after a sweep, the sweep performed no partition refinement
        at all.
        """
        return refinement_pass_count() - self._passes_base

    @property
    def evicted_bytes(self) -> int:
        """Estimated bytes released by evictions (refinements *and* kernels)."""
        return self._evicted_bytes

    @property
    def store_hits(self) -> int:
        """In-memory misses that were served by the attached store."""
        return self._store_hits

    @property
    def store_misses(self) -> int:
        """In-memory misses the attached store could not serve either."""
        return self._store_misses

    @property
    def admissions(self) -> int:
        """Probation entries promoted to the main LRU by a second request."""
        return self._admissions

    @property
    def admission_rejects(self) -> int:
        """Probation entries dropped without ever earning a second request."""
        return self._admission_rejects

    def live_bytes(self) -> int:
        """Estimated retained footprint of all live entries (bytes)."""
        with self._lock:
            return sum(
                entry.estimated_bytes()
                for bucket in self._buckets.values()
                for entry in bucket
            ) + sum(
                entry.estimated_bytes()
                for bucket in self._probation.values()
                for entry in bucket
            )

    def counters(self) -> Dict[str, int]:
        """Every counter and size that is a point read (all but ``live_bytes``).

        Lock-free (single int reads), cheap enough to take before and after
        one evaluation; :func:`repro.obs.counter_snapshot` reads it.
        """
        return {
            "hits": self._hits,
            "misses": self._misses,
            "evictions": self._evictions,
            "currsize": self._num_entries,
            "maxsize": self._maxsize,
            "refinement_passes": self.refinement_passes,
            "evicted_bytes": self._evicted_bytes,
            "store_hits": self._store_hits,
            "store_misses": self._store_misses,
            "probation": self._probation_entries,
            "admissions": self._admissions,
            "admission_rejects": self._admission_rejects,
            "spec_index": len(self._specs),
        }

    def stats(self) -> Dict[str, int]:
        """:meth:`counters` plus the scanned ``live_bytes`` estimate."""
        return dict(self.counters(), live_bytes=self.live_bytes())


#: The process-wide cache used by the library's default code paths.
refinement_cache = RefinementCache()


def shared_refinement(graph: PortLabeledGraph) -> ViewRefinement:
    """The process-wide memoised :class:`ViewRefinement` of ``graph``."""
    return refinement_cache.get(graph)


def shared_kernel(graph: PortLabeledGraph) -> GraphKernel:
    """The process-wide memoised :class:`~repro.kernel.GraphKernel` of ``graph``.

    Lives on the same cache entry as the refinement, so one lookup warms both
    and eviction drops both together.
    """
    return refinement_cache.entry(graph).kernel
