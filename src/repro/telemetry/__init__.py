"""Unified telemetry plane: spans, metrics registry, profiler, JSONL export.

The flat counters scattered through the library
(:class:`~repro.relational.stats.EvalStats`,
:class:`~repro.consistency.propagation.PropagationStats`,
:class:`~repro.csp.solvers.backtracking.SearchStats`) answer "how much?";
this package answers "where, when, and how long?".  It has four parts:

* :mod:`repro.telemetry.spans` — a hierarchical span tracer scoped with a
  :class:`contextvars.ContextVar` exactly like ``collect_stats``: every
  instrumented phase (planning, each join/semijoin/wcoj operator, each
  propagation fixpoint, each batch of search nodes) opens a named span
  carrying its wall-clock duration, parent, and the stats deltas charged
  inside it.  Zero-cost when inactive.
* :mod:`repro.telemetry.registry` — :class:`MetricSet`, the dataclass
  base whose fields declare each counter once and which derives
  merge/reset/serialization, snapshot/delta/rebuild, namespaced metric
  names and the ``ContextVar`` collectors from them, plus log-scale
  :class:`TimingHistogram` distributions.
* :mod:`repro.telemetry.profile` — :class:`QueryProfile`, an
  EXPLAIN-ANALYZE-style renderer for finished traces.
* :mod:`repro.telemetry.jsonl` — span_open/counter/span_close events, one
  JSON object per line, that parse back and reaggregate to exactly the
  in-process totals.

Typical use::

    from repro.telemetry import tracing, QueryProfile

    with tracing("triangle") as trace:
        rows = evaluate(query, db, strategy="auto")
    print(QueryProfile(trace).render())

On the CLI: ``repro profile <workload>`` and ``repro trace --jsonl``.
"""

from __future__ import annotations

from repro.telemetry.jsonl import (
    dumps,
    parse_jsonl,
    reaggregate,
    reaggregate_histograms,
    trace_events,
    validate_events,
    write_jsonl,
)
from repro.telemetry.profile import QueryProfile, format_seconds
from repro.telemetry.registry import (
    METRICSET_KINDS,
    MetricSet,
    TimingHistogram,
    derived,
    kind_of,
    merge_counters,
    metricset_class,
    payload,
)
from repro.telemetry.spans import (
    Span,
    Trace,
    current_span,
    current_trace,
    span,
    tracing,
)

__all__ = [
    # spans
    "Span",
    "Trace",
    "tracing",
    "span",
    "current_trace",
    "current_span",
    # registry
    "METRICSET_KINDS",
    "MetricSet",
    "derived",
    "kind_of",
    "metricset_class",
    "payload",
    "merge_counters",
    "TimingHistogram",
    # profiler
    "QueryProfile",
    "format_seconds",
    # jsonl
    "trace_events",
    "dumps",
    "write_jsonl",
    "parse_jsonl",
    "validate_events",
    "reaggregate",
    "reaggregate_histograms",
]
