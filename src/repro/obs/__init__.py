"""Observability: stdlib-only spans, context propagation, bounded rings; counters.

See :mod:`repro.obs.span` for the producer API and
:mod:`repro.obs.recorder` for storage, trees and the JSONL sink.  The
service layers record into :data:`default_recorder`; ``GET /trace/<id>``
serves its :meth:`~repro.obs.recorder.SpanRecorder.tree`.
:mod:`repro.obs.counters` takes and adds up the counter snapshots that
``/stats``, ``/metrics`` and the span tags read.
"""

from .counters import Snapshot, counter_snapshot, merge_snapshots
from .recorder import (
    DEFAULT_MAX_SPANS_PER_TRACE,
    DEFAULT_MAX_TRACES,
    SpanRecorder,
    default_recorder,
)
from .span import (
    MAX_TAGS_PER_SPAN,
    SPAN_SCHEMA_KEYS,
    Span,
    activate,
    current_context,
    new_trace_id,
    record_span,
    set_tracing,
    span,
    tracing_enabled,
)

__all__ = [
    "DEFAULT_MAX_SPANS_PER_TRACE",
    "DEFAULT_MAX_TRACES",
    "MAX_TAGS_PER_SPAN",
    "SPAN_SCHEMA_KEYS",
    "Snapshot",
    "Span",
    "SpanRecorder",
    "activate",
    "counter_snapshot",
    "current_context",
    "default_recorder",
    "merge_snapshots",
    "new_trace_id",
    "record_span",
    "set_tracing",
    "span",
    "tracing_enabled",
]
