"""One counter snapshot per process, and the one way to add snapshots up.

A *snapshot* is ``{"cache": {...}, "search": {...}, "store": {...}}``: the
refinement cache's counters, the PPE/CPPE joint-search counters and the
attached store handle's counters, each a flat ``{name: int}`` section.
Every consumer reads these numbers through :func:`counter_snapshot` --
the ``evaluate_graph`` span tags (a before/after difference), the
counters a shard worker ships with every reply, the ``cache``/``search``/
``store`` sections of ``/stats``, the ``repro_search_events`` and
``repro_store_events`` families of ``/metrics``, and ``repro bench
--cache-stats`` -- and every sum of several processes' snapshots goes
through :func:`merge_snapshots`, so the service's two endpoints cannot
disagree about a counter.
"""

from __future__ import annotations

from typing import Dict

from ..core.election_index import search_statistics

__all__ = ["Snapshot", "counter_snapshot", "merge_snapshots"]

#: ``{section: {counter: value}}``.
Snapshot = Dict[str, Dict[str, int]]


class _NoStore(dict):
    """The ``store`` section when no store is attached: empty (nothing to
    report or add up), yet every counter reads 0, so a before/after
    difference indexes it like any other section."""

    def __missing__(self, name: str) -> int:
        return 0


def counter_snapshot(cache, *, hot_tier: bool = True) -> Snapshot:
    """The counters of ``cache`` (the process-wide refinement cache), of this
    process's joint searches, and of the store attached to ``cache``.

    Point reads only -- no cache scan, no manifest read -- so a traced
    warm evaluation can take one before and one after its work; it passes
    ``hot_tier=False`` to leave out the store's hot-tier counters, which
    its span tags do not report.
    """
    store = cache.store
    return {
        "cache": cache.counters(),
        "search": search_statistics(),
        "store": store.counters(hot_tier=hot_tier) if store is not None else _NoStore(),
    }


def merge_snapshots(*snapshots: Snapshot) -> Snapshot:
    """Add snapshots up, section by section and counter by counter.

    A counter missing from some snapshot counts as zero there, so empty
    snapshots (a shard that has not answered yet) merge harmlessly.
    """
    merged: Snapshot = {}
    for snapshot in snapshots:
        for section, counters in snapshot.items():
            totals = merged.setdefault(section, {})
            for name, value in counters.items():
                totals[name] = totals.get(name, 0) + value
    return merged
