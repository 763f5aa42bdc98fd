"""Incremental worklist partition refinement on CSR arrays.

The view-equivalence partitions of a port-labeled graph (depth-``h`` classes
= equal truncated views ``B^h``) are computed by iterated signature
refinement: the depth-``h`` class of ``v`` is determined by its depth-(h-1)
class together with the port-ordered ``(incoming port, neighbour's class)``
pairs.  The naive scheme re-signatures *every* node at *every* depth —
O((n + m) · h) with a large constant, because each signature allocates a
nested tuple.

This engine is incremental in the style of Hopcroft / Paige–Tarjan.  Classes
carry stable ids across depths; when a class splits, one fragment (the
largest — the deterministic "retained" fragment) keeps the id and only the
members of the *other* fragments enter the worklist.  A pass then
re-signatures exactly the classes containing a worklist node or one of its
CSR neighbours, skipping singletons (they can never split):

* a class none of whose members or members' neighbours changed class cannot
  split — restricted to that neighbourhood, the partition is literally the
  same equivalence relation as one depth earlier;
* a neighbour that stayed in the *retained* fragment of its old class kept
  its class id, so signatures referencing it are unchanged — which is why
  retained-fragment members may be excluded from the worklist (two
  same-class neighbours both in retained fragments of one old class are
  still in one class).

On rapidly-discretising graphs every pass touches everything and the cost
matches a full sweep minus the already-discrete regions; on slowly
stabilising graphs (long quasi-symmetric cycles and paths) a pass touches
only the O(Δ)-sized frontier where classes are still splitting, turning the
O((n + m) · n) worst case into O(n + m + total churn).

Colours are materialised per depth as raw id arrays (an O(n) C-level copy
per pass) and canonicalised lazily — renumbered 0..c-1 by first appearance
in node order — only for depths actually queried, which keeps the public
colour lists byte-identical to the classic full-sweep implementation.
Inverse indexes (``members_at``: class → node list, ``unique_at``) are also
built lazily per depth and cached, so class/twin/uniqueness queries are
O(1) / O(output) after a one-off O(n) build per queried depth.
"""

from __future__ import annotations

import threading
from array import array
from typing import Dict, List, Optional, Tuple

from .csr import INT_TYPECODE, CSRGraph

__all__ = [
    "CSRPartitionRefinement",
    "make_refinement",
    "refinement_from_stored",
    "refinement_delta",
    "refinement_pass_count",
]

_pass_lock = threading.Lock()
_pass_total = 0


def count_refinement_passes(passes: int = 1) -> None:
    """Add ``passes`` to the process-wide pass counter (engines call this)."""
    global _pass_total
    with _pass_lock:
        _pass_total += passes


def refinement_pass_count() -> int:
    """Refinement passes performed by every engine of this process, ever.

    Monotone.  Counts the cold passes of both backends' engines -- whoever
    created them: the runner cache, :meth:`PortLabeledGraph.fingerprint`, a
    test -- and the depths a delta replay materialises.  An engine restored
    from stored tables adds nothing.  "A warm request refines nothing" is
    checked as "this counter did not move".
    """
    return _pass_total


class CSRPartitionRefinement:
    """Lazy per-depth view-equivalence partitions of one CSR graph.

    The partitions (and the canonical colour numberings exposed by
    :meth:`colors_at`) are exactly those of the classic full-sweep
    refinement; only the work per pass is reduced to the neighbourhood of the
    previous pass's splits.
    """

    __slots__ = (
        "_csr",
        "_raw",
        "_num_classes",
        "_current_members",
        "_class_size",
        "_next_id",
        "_changed",
        "_stable_depth",
        "_passes",
        "_canonical",
        "_members",
        "_unique",
    )

    def __init__(self, csr: CSRGraph) -> None:
        self._csr = csr
        n = csr.num_nodes
        offsets = csr.offsets
        initial = array(INT_TYPECODE, [0] * n)
        mapping: Dict[int, int] = {}
        members: Dict[int, List[int]] = {}
        for v in range(n):
            degree = offsets[v + 1] - offsets[v]
            color = mapping.get(degree)
            if color is None:
                color = len(mapping)
                mapping[degree] = color
                members[color] = []
            initial[v] = color
            members[color].append(v)
        #: raw (stable-id) colour arrays per depth.
        self._raw: List[array] = [initial]
        self._num_classes: List[int] = [len(mapping)]
        #: live class id -> member list.  Lists may contain *stale* entries
        #: (nodes split off to a fresh id since): a node v is a live member
        #: of d iff the latest raw colours say so.  Stale entries are
        #: filtered on touch and compacted when they outnumber live ones.
        self._current_members = members
        #: live class id -> exact live member count.
        self._class_size: Dict[int, int] = {d: len(group) for d, group in members.items()}
        self._next_id = len(mapping)
        #: worklist: members of non-retained fragments of the latest pass.
        #: ``None`` means "everything" (before the first pass).
        self._changed: Optional[List[int]] = None
        self._stable_depth: Optional[int] = None
        self._passes = 0
        #: lazily-built per-depth views: canonical colours, class -> members,
        #: unique-node lists.
        self._canonical: Dict[int, array] = {}
        self._members: Dict[int, List[List[int]]] = {}
        self._unique: Dict[int, List[int]] = {}
        if n == 1 or self._num_classes[0] == n:
            self._stable_depth = 0

    @classmethod
    def from_stored(
        cls,
        csr: CSRGraph,
        tables: "List[List[int]]",
        stable_depth: int,
    ) -> "CSRPartitionRefinement":
        """An engine pre-loaded with partitions computed by an earlier process.

        ``tables`` must be *canonical* colour tables (ids ``0..c-1`` by first
        appearance in node order, exactly what :meth:`colors_at` returns) for
        depths ``0..len(tables)-1``, with ``stable_depth <= len(tables)-1``
        the refinement fixpoint.  The loaded engine answers every depth query
        from the installed tables and, because the fixpoint is known, never
        runs a refinement pass: :attr:`passes` stays ``0``, which is what
        lets the store-warm CI gate certify that a cold process replaying a
        sweep from the artifact store performs zero refinement work.
        """
        n = csr.num_nodes
        if stable_depth < 0 or len(tables) < stable_depth + 1:
            raise ValueError("tables must cover depths 0..stable_depth")
        engine = cls(csr)
        raw: List[array] = []
        num_classes: List[int] = []
        for table in tables:
            if len(table) != n:
                raise ValueError("each colour table must have one entry per node")
            arr = array(INT_TYPECODE, table)
            raw.append(arr)
            num_classes.append((max(arr) + 1) if n else 0)
        members: Dict[int, List[int]] = {}
        last = raw[-1]
        for v in range(n):
            group = members.get(last[v])
            if group is None:
                members[last[v]] = [v]
            else:
                group.append(v)
        engine._raw = raw
        engine._num_classes = num_classes
        engine._current_members = members
        engine._class_size = {c: len(group) for c, group in members.items()}
        engine._next_id = num_classes[-1]
        engine._changed = []
        engine._stable_depth = stable_depth
        engine._passes = 0
        engine._canonical = {}
        engine._members = {}
        engine._unique = {}
        return engine

    # ------------------------------------------------------------------ #
    @property
    def csr(self) -> CSRGraph:
        return self._csr

    @property
    def passes(self) -> int:
        return self._passes

    @property
    def stable_depth(self) -> Optional[int]:
        return self._stable_depth

    @property
    def computed_depth(self) -> int:
        """Deepest depth whose partition has been materialised."""
        return len(self._raw) - 1

    @property
    def class_counts(self) -> Tuple[int, ...]:
        """Class counts of every materialised depth (0..computed_depth)."""
        return tuple(self._num_classes)

    # ------------------------------------------------------------------ #
    def apply_delta(self, csr: CSRGraph, node_map, touched) -> "CSRPartitionRefinement":
        """Re-refine an edited graph by replaying only the dirtied classes.

        ``self`` is the (stable or stabilisable) engine of the *base* graph;
        ``csr`` encodes the mutated graph, ``node_map`` maps its handles back
        to base handles (``-1`` for fresh nodes) and ``touched`` lists the
        handles whose port tables the edit changed — exactly the fields of a
        :class:`repro.portgraph.delta.DeltaResult`.  Returns a **new** engine
        for the mutated graph; the base engine is not modified.

        Naively re-seeding this engine's own worklist would be unsound: one
        engine's partitions only ever *split* across depths, but an edit can
        make the mutated graph's partition at some depth **coarser** than the
        base's (classes merge).  Instead the replay rebuilds each depth's
        partition from two provably-exact sources:

        * a node is *dirty at depth h* iff its radius-``h`` ball contains a
          touched node (the dirty set grows one hop per depth).  A **clean**
          node's depth-``h`` truncated view is isomorphic to its base
          counterpart's, so clean nodes inherit the base partition verbatim:
          their label is the base raw colour at depth ``min(h, base stable)``
          pulled through ``node_map``;
        * **dirty** nodes are re-signatured against the depth-(h-1) labels —
          the true partition by induction — and either matched to a clean
          class via one representative signature probe per candidate class,
          or grouped among themselves under fresh (negative) ids.

        After each depth a *conformance certificate* is attempted: the
        depth's partition equals the base partition pulled through
        ``node_map`` (plus one singleton class per delta-created node) iff
        every matched dirty node landed on its own base label and every
        fresh class corresponds member-for-member to one base class.  When
        the certificate holds, the depth's table is (re)labeled to the base
        labeling — for an identity ``node_map`` the base array is aliased
        outright — and the dirty ball collapses back to the touched set:
        only a changed port table can make the *next* depth's signature
        deviate from a conforming labeling.  Local edits therefore replay
        in O(|touched|) per depth instead of O(ball), which is what the
        delta-vs-cold speedup gate in ``bench_pr10_delta`` measures.

        Since first-appearance canonicalisation is a pure function of the
        partition, every ``colors_at`` table of the returned engine is
        byte-identical to a cold full refinement of the mutated graph; the
        certified equivalence matrix in the delta test suite pins this.
        Replayed passes count toward :attr:`passes` (one per depth): delta
        recompute is real refinement work, unlike a store restore.
        """
        engine = CSRPartitionRefinement(csr)
        if engine._stable_depth is not None:
            return engine  # single node or already-discrete depth 0
        self.ensure_stable()
        base_stable = self.stable_depth
        # normalise to stdlib arrays lazily: a numpy base engine (delegating
        # here) holds numpy tables, which lack the C-level index/count scans
        # the replay leans on, and most replays touch few distinct depths
        base_tables = self._raw
        norm_cache: Dict[int, array] = {}

        def base_raw(d: int) -> array:
            t = base_tables[d]
            if isinstance(t, array):
                return t
            got = norm_cache.get(d)
            if got is None:
                got = norm_cache[d] = array(INT_TYPECODE, t.tolist())
            return got

        n = csr.num_nodes
        offsets = csr.offsets
        neighbors = csr.neighbors
        reverse_ports = csr.reverse_ports

        base_counts = self._num_classes
        # identity transport: same handles, no joins/leaves — base tables can
        # be aliased verbatim on conforming depths (zero copies)
        identity = n == self._csr.num_nodes and all(
            m == v for v, m in enumerate(node_map)
        )

        touched_list: List[int] = sorted(set(touched))
        dirty = bytearray(n)
        for v in touched_list:
            dirty[v] = 1
        dirty_list: List[int] = list(touched_list)
        # base nodes observed to sit in a singleton base class: refinement
        # only ever splits, so one .count observation serves every later depth
        singleton_base = bytearray(self._csr.num_nodes)
        prev = engine._raw[0]
        # prev aliases the base table of the previous depth verbatim (the
        # identity-transport conforming case): base-space facts apply to it
        prev_is_base = False
        # the ball must widen only while some label deviated from the base
        # inheritance at the previous depth; after a conforming depth the
        # candidates collapse to the touched set alone
        grow = True
        depth = 0
        while True:
            depth += 1
            if grow:
                # grow the dirty ball one hop
                frontier: List[int] = []
                for v in dirty_list:
                    for i in range(offsets[v], offsets[v + 1]):
                        u = neighbors[i]
                        if not dirty[u]:
                            dirty[u] = 1
                            frontier.append(u)
                if frontier:
                    dirty_list = sorted(dirty_list + frontier)
            table = base_raw(min(depth, base_stable))
            # previous-depth labels under which a dirty node could still
            # coincide with a clean class (negative = fresh, never matches;
            # a known-singleton base class has no clean members to probe)
            candidate_prev: set = set()
            for v in dirty_list:
                parent = prev[v]
                if parent >= 0 and not (prev_is_base and singleton_base[v]):
                    candidate_prev.add(parent)
            # one representative signature per *distinct child label* among
            # the clean members of each candidate class
            rep_signatures: Dict[tuple, int] = {}
            if len(candidate_prev) > 64:
                # wide candidate set: one bulk sweep of the previous table
                # beats thousands of per-class occurrence scans
                probed_pairs: set = set()
                for i in range(n):
                    parent = prev[i]
                    if parent not in candidate_prev or dirty[i]:
                        continue
                    label = table[node_map[i]]
                    if (parent, label) in probed_pairs:
                        continue
                    probed_pairs.add((parent, label))
                    rep_signatures[
                        (
                            parent,
                            tuple(
                                (reverse_ports[k], prev[neighbors[k]])
                                for k in range(offsets[i], offsets[i + 1])
                            ),
                        )
                    ] = label
            else:
                # narrow candidate set: C-level occurrence scans per class
                for parent in candidate_prev:
                    probed: set = set()
                    i = -1
                    while True:
                        try:
                            i = prev.index(parent, i + 1)
                        except ValueError:
                            break
                        if dirty[i]:
                            continue
                        label = table[node_map[i]]
                        if label in probed:
                            continue
                        probed.add(label)
                        rep_signatures[
                            (
                                parent,
                                tuple(
                                    (reverse_ports[k], prev[neighbors[k]])
                                    for k in range(offsets[i], offsets[i + 1])
                                ),
                            )
                        ] = label
            fresh: Dict[tuple, int] = {}
            labels: Dict[int, int] = {}
            for v in dirty_list:
                signature = (
                    prev[v],
                    tuple(
                        (reverse_ports[i], prev[neighbors[i]])
                        for i in range(offsets[v], offsets[v + 1])
                    ),
                )
                label = rep_signatures.get(signature)
                if label is None:
                    label = fresh.get(signature)
                    if label is None:
                        label = -1 - len(fresh)
                        fresh[signature] = label
                labels[v] = label

            # conformance certificate: does this partition equal the base's
            # (through node_map, plus a singleton per created node)?
            conforming = True
            fresh_groups: Dict[int, List[int]] = {}
            for v in dirty_list:
                label = labels[v]
                if label >= 0:
                    if node_map[v] < 0 or table[node_map[v]] != label:
                        conforming = False
                        break
                else:
                    fresh_groups.setdefault(label, []).append(v)
            if conforming:
                for members in fresh_groups.values():
                    mapped = [node_map[v] for v in members]
                    if mapped[0] < 0:
                        # a delta-created node is its own class either way
                        if len(members) == 1:
                            continue
                        conforming = False
                        break
                    base_label = table[mapped[0]]
                    if not all(m >= 0 and table[m] == base_label for m in mapped):
                        conforming = False
                        break
                    # node_map is injective, so a full-size image set means
                    # no clean or matched node can share this base class
                    if len(members) == 1:
                        b = mapped[0]
                        if not singleton_base[b]:
                            if table.count(base_label) == 1:
                                singleton_base[b] = 1
                            else:
                                conforming = False
                                break
                    elif table.count(base_label) != len(members):
                        conforming = False
                        break

            if conforming:
                # relabel to the base labeling (same partition) and collapse
                # the ball: only a changed port table can deviate next depth
                if identity:
                    cur = table
                    count = base_counts[min(depth, base_stable)]
                    prev_is_base = True
                else:
                    cur = array(INT_TYPECODE, map(table.__getitem__, node_map))
                    for v in range(n):
                        if node_map[v] < 0:
                            cur[v] = -n - 1 - v  # stable per-node sentinel
                    count = len(set(cur))
                    prev_is_base = False
                dirty = bytearray(n)
                for v in touched_list:
                    dirty[v] = 1
                dirty_list = list(touched_list)
                grow = False
                if identity and all(singleton_base[v] for v in touched_list):
                    # discrete-touched fast-forward: every touched node sits
                    # in a singleton base class from here on (splitting never
                    # merges), and signatures embed the previous labels --
                    # which this conforming depth just reset to the base's,
                    # pairwise distinct for the touched set.  Each touched
                    # node therefore stays a class of its own at every
                    # remaining depth, every clean node groups exactly as the
                    # base does, and the whole remaining refinement conforms:
                    # alias the base tables through the fixpoint in one
                    # stride.
                    engine._raw.append(cur)
                    engine._num_classes.append(count)
                    engine._passes += 1
                    while count != engine._num_classes[-2]:
                        depth += 1
                        effective = min(depth, base_stable)
                        cur = base_raw(effective)
                        count = base_counts[effective]
                        engine._raw.append(cur)
                        engine._num_classes.append(count)
                        engine._passes += 1
                    engine._stable_depth = depth - 1
                    break
            else:
                if identity:
                    cur = array(INT_TYPECODE, table)
                else:
                    cur = array(INT_TYPECODE, map(table.__getitem__, node_map))
                # keep only the nodes whose label actually deviated from the
                # base inheritance (plus the ever-suspect touched set): a
                # matched-to-its-own-class node is indistinguishable from a
                # clean one and needs no ring of its own next depth
                deviating: List[int] = []
                for v, label in labels.items():
                    cur[v] = label
                    b = node_map[v]
                    if label < 0 or b < 0 or label != table[b]:
                        deviating.append(v)
                count = len(set(cur))
                prev_is_base = False
                dirty = bytearray(n)
                for v in touched_list:
                    dirty[v] = 1
                for v in deviating:
                    dirty[v] = 1
                dirty_list = sorted(set(touched_list) | set(deviating))
                grow = True
            engine._raw.append(cur)
            engine._num_classes.append(count)
            engine._passes += 1
            if count == engine._num_classes[-2]:
                # same class count + nesting partitions => same partition:
                # the fixpoint was reached one depth earlier, and this table
                # is its duplicate — exactly the shape _refine_once leaves.
                engine._stable_depth = depth - 1
                break
            prev = cur

        count_refinement_passes(engine._passes)
        last = engine._raw[-1]
        members: Dict[int, List[int]] = {}
        for v in range(n):
            members.setdefault(last[v], []).append(v)
        engine._current_members = members
        engine._class_size = {c: len(group) for c, group in members.items()}
        engine._next_id = engine._num_classes[-1]
        engine._changed = []
        return engine

    # ------------------------------------------------------------------ #
    def _signature(self, v: int, previous: array) -> tuple:
        csr = self._csr
        offsets = csr.offsets
        neighbors = csr.neighbors
        reverse_ports = csr.reverse_ports
        return tuple(
            (reverse_ports[i], previous[neighbors[i]])
            for i in range(offsets[v], offsets[v + 1])
        )

    def _split_class(
        self,
        d: int,
        parts: List[List[int]],
        retained_index: int,
        new_colors: array,
        changed_next: List[int],
    ) -> None:
        """Give every fragment except ``parts[retained_index]`` a fresh id."""
        current_members = self._current_members
        class_size = self._class_size
        for index, part in enumerate(parts):
            if index == retained_index:
                continue
            fresh = self._next_id
            self._next_id = fresh + 1
            for v in part:
                new_colors[v] = fresh
            current_members[fresh] = part
            class_size[fresh] = len(part)
        retained = parts[retained_index]
        current_members[d] = retained
        class_size[d] = len(retained)
        for index, part in enumerate(parts):
            if index != retained_index:
                changed_next.extend(part)

    def _refine_once(self) -> None:
        csr = self._csr
        offsets = csr.offsets
        neighbors = csr.neighbors
        previous = self._raw[-1]
        current_members = self._current_members
        class_size = self._class_size
        changed = self._changed
        self._passes += 1
        count_refinement_passes()

        new_colors = array(INT_TYPECODE, previous)
        changed_next: List[int] = []
        splits = 0

        if changed is None:
            # First pass: every multi-member class is re-signatured in full.
            for d in sorted(current_members):
                group = current_members[d]
                if len(group) <= 1:
                    continue
                fragments: Dict[tuple, List[int]] = {}
                for v in group:
                    signature = self._signature(v, previous)
                    bucket = fragments.get(signature)
                    if bucket is None:
                        fragments[signature] = [v]
                    else:
                        bucket.append(v)
                if len(fragments) > 1:
                    parts = list(fragments.values())
                    retained_index = max(range(len(parts)), key=lambda i: len(parts[i]))
                    self._split_class(d, parts, retained_index, new_colors, changed_next)
                    splits += len(parts) - 1
        else:
            # 1. collect the *touched* nodes (worklist nodes and their
            #    neighbours), bucketed by their current class.  Only these
            #    members can have a signature differing from their class's;
            #    every untouched member of a touched class provably shares
            #    one common signature, so it never needs re-signaturing.
            touched = bytearray(csr.num_nodes)
            touched_by_class: Dict[int, List[int]] = {}
            for v in changed:
                if not touched[v]:
                    touched[v] = 1
                    touched_by_class.setdefault(previous[v], []).append(v)
                for i in range(offsets[v], offsets[v + 1]):
                    u = neighbors[i]
                    if not touched[u]:
                        touched[u] = 1
                        touched_by_class.setdefault(previous[u], []).append(u)

            # 2. re-signature the touched members of each dirty class.
            for d in sorted(touched_by_class):
                if class_size[d] <= 1:
                    continue
                touched_members = touched_by_class[d]
                untouched_count = class_size[d] - len(touched_members)
                sig_groups: Dict[tuple, List[int]] = {}
                for v in touched_members:
                    signature = self._signature(v, previous)
                    bucket = sig_groups.get(signature)
                    if bucket is None:
                        sig_groups[signature] = [v]
                    else:
                        bucket.append(v)

                if untouched_count == 0:
                    if len(sig_groups) == 1:
                        continue
                    parts = list(sig_groups.values())
                    retained_index = max(range(len(parts)), key=lambda i: len(parts[i]))
                    self._split_class(d, parts, retained_index, new_colors, changed_next)
                    splits += len(parts) - 1
                    continue

                # Some members are untouched: they all share the signature of
                # any untouched representative, so one O(Δ) probe stands in
                # for all of them.
                rep = None
                for v in current_members[d]:
                    if previous[v] == d and not touched[v]:
                        rep = v
                        break
                rep_signature = self._signature(rep, previous)
                rep_group = sig_groups.pop(rep_signature, None)
                implicit_size = untouched_count + (len(rep_group) if rep_group else 0)
                if not sig_groups:
                    continue  # every touched member matched: no split
                moved = list(sig_groups.values())
                largest_moved = max(len(part) for part in moved)
                if implicit_size >= largest_moved:
                    # the untouched fragment is retained: it keeps id d and
                    # is never materialised, so the pass stays O(touched)
                    for part in moved:
                        fresh = self._next_id
                        self._next_id = fresh + 1
                        for v in part:
                            new_colors[v] = fresh
                        current_members[fresh] = part
                        class_size[fresh] = len(part)
                        changed_next.extend(part)
                    class_size[d] = implicit_size
                    splits += len(moved)
                else:
                    # a touched fragment outgrew the untouched one; the class
                    # is mostly churn anyway, so materialising it is within
                    # the touched budget
                    rep_set = set(rep_group) if rep_group else ()
                    implicit = [
                        v
                        for v in current_members[d]
                        if previous[v] == d and (not touched[v] or v in rep_set)
                    ]
                    parts = [implicit] + moved
                    retained_index = 1 + max(
                        range(len(moved)), key=lambda i: len(moved[i])
                    )
                    self._split_class(d, parts, retained_index, new_colors, changed_next)
                    splits += len(parts) - 1

        # compact member lists whose stale entries dominate
        for d in set(previous[v] for v in changed_next) if changed_next else ():
            group = current_members.get(d)
            if group is not None and len(group) > 2 * max(1, class_size[d]):
                current_members[d] = [v for v in group if new_colors[v] == d]

        self._raw.append(new_colors)
        self._num_classes.append(self._num_classes[-1] + splits)
        self._changed = changed_next

        if self._stable_depth is None and splits == 0:
            # refinement only splits classes: a pass with no splits means the
            # partition reached its fixpoint one depth earlier.
            self._stable_depth = len(self._raw) - 2

    # ------------------------------------------------------------------ #
    def ensure_depth(self, depth: int) -> int:
        """Materialise partitions up to ``depth`` (or the fixpoint).

        Returns the *effective* depth at which to read: ``depth`` itself, or
        the stable depth when that is smaller.
        """
        if depth < 0:
            raise ValueError("depth must be non-negative")
        while len(self._raw) <= depth and self._stable_depth is None:
            self._refine_once()
        if self._stable_depth is not None and depth > self._stable_depth:
            return self._stable_depth
        return depth

    def ensure_stable(self) -> int:
        while self._stable_depth is None:
            self._refine_once()
        return self._stable_depth

    # ------------------------------------------------------------------ #
    # O(1) / O(output) queries (depth must already be effective)
    # ------------------------------------------------------------------ #
    def colors_at(self, effective: int) -> array:
        """Canonical colours at a materialised depth (0..c-1 by first appearance).

        Byte-identical to the lists the classic full-sweep implementation
        produced, because first-appearance renumbering is a pure function of
        the partition.  Built lazily and cached per depth.
        """
        cached = self._canonical.get(effective)
        if cached is None:
            raw = self._raw[effective]
            mapping: Dict[int, int] = {}
            mapping_get = mapping.get
            cached = array(INT_TYPECODE, raw)
            for v, r in enumerate(raw):
                color = mapping_get(r)
                if color is None:
                    color = len(mapping)
                    mapping[r] = color
                cached[v] = color
            self._canonical[effective] = cached
        return cached

    def num_classes_at(self, effective: int) -> int:
        return self._num_classes[effective]

    def members_at(self, effective: int) -> List[List[int]]:
        """Canonical class → members (ascending node order), built lazily."""
        cached = self._members.get(effective)
        if cached is None:
            cached = [[] for _ in range(self._num_classes[effective])]
            for v, c in enumerate(self.colors_at(effective)):
                cached[c].append(v)
            self._members[effective] = cached
        return cached

    def unique_at(self, effective: int) -> List[int]:
        """Nodes in singleton classes (ascending), built lazily per depth."""
        cached = self._unique.get(effective)
        if cached is None:
            cached = sorted(
                group[0] for group in self.members_at(effective) if len(group) == 1
            )
            self._unique[effective] = cached
        return cached

    def class_members(self, node: int, effective: int) -> List[int]:
        return self.members_at(effective)[self.colors_at(effective)[node]]

    # ------------------------------------------------------------------ #
    def canonical_tables(self) -> List[List[int]]:
        """Canonical colour tables for every materialised depth (0..computed).

        This is the payload the artifact store persists and
        :meth:`from_stored` re-installs; round-tripping through it preserves
        every public colour query byte-for-byte.
        """
        return [list(self.colors_at(depth)) for depth in range(len(self._raw))]

    def estimated_bytes(self) -> int:
        """Rough retained footprint of the engine's per-depth state (bytes).

        Counts the raw and canonical colour arrays exactly and the inverse
        indexes (member/unique lists) at Python-list rates; used by the
        runner cache's eviction accounting, not for allocation decisions.
        """
        total = 0
        for arr in self._raw:
            total += len(arr) * arr.itemsize
        for arr in self._canonical.values():
            total += len(arr) * arr.itemsize
        for groups in self._members.values():
            total += sum(56 + 8 * len(group) for group in groups)
        for group in self._unique.values():
            total += 56 + 8 * len(group)
        for group in self._current_members.values():
            total += 56 + 8 * len(group)
        return total


# ---------------------------------------------------------------------- #
# backend-dispatching factories
# ---------------------------------------------------------------------- #
def make_refinement(csr):
    """A refinement engine for ``csr`` on the active kernel backend.

    Both engines expose the same surface and answer byte-identically (see
    ``repro.kernel.backend``); the binding is per object — an engine keeps
    the backend it was built with even if the selection later changes.
    """
    from .backend import active_backend

    if active_backend() == "numpy":
        from .refine_numpy import NumpyPartitionRefinement

        return NumpyPartitionRefinement(csr)
    return CSRPartitionRefinement(csr)


def refinement_from_stored(csr, tables, stable_depth):
    """A pre-loaded engine (``passes == 0``) on the active kernel backend."""
    from .backend import active_backend

    if active_backend() == "numpy":
        from .refine_numpy import NumpyPartitionRefinement

        return NumpyPartitionRefinement.from_stored(csr, tables, stable_depth)
    return CSRPartitionRefinement.from_stored(csr, tables, stable_depth)


def refinement_delta(base_engine, csr, node_map, touched):
    """An engine for an edited graph, replayed from its base's partitions.

    The delta path always runs :meth:`CSRPartitionRefinement.apply_delta` —
    the **certified python fallback**: the replay's per-depth work is the
    dirty ball plus one cheap O(n) inheritance sweep, which the batched
    full-width numpy passes cannot exploit, and its output is certified
    byte-identical to both backends' cold refinement by the delta
    equivalence suite.  The base engine may be either backend (its raw
    tables are read through the shared accessor surface); the returned
    engine is always the python one.
    """
    return CSRPartitionRefinement.apply_delta(base_engine, csr, node_map, touched)
