"""EXPLAIN-ANALYZE-style rendering of a finished trace.

:class:`QueryProfile` turns the span tree a
:class:`~repro.telemetry.spans.Trace` collected into the report a query
engine would print for ``EXPLAIN ANALYZE``: one row per span with its
duration, share of the root span's wall clock, and output cardinality
(the ``rows`` attribute instrumented operators attach), followed by a
per-operator aggregate table (calls, total/mean time from the trace's
timing histograms) and the counter totals of every metricset the trace
touched::

    trace: profile                                   total 1.8ms
    span                                  time      %   rows
    ------------------------------------ --------- ------ -------
    cq.evaluate                             1.8ms  100.0%      12
      plan                                  0.1ms    3.1%
      route                                 0.0ms    0.4%
      leapfrog_join                         1.5ms   86.2%      12
    ...

The renderer is pure formatting: it never touches the live stats
ContextVars, so a profile can be rendered (or re-rendered) long after the
traced evaluation finished, including from a parsed JSONL stream via
:func:`repro.telemetry.jsonl.reaggregate`.
"""

from __future__ import annotations

from typing import Any

from repro.telemetry.jsonl import reaggregate, trace_events
from repro.telemetry.spans import Span, Trace

__all__ = ["QueryProfile", "format_seconds"]


def format_seconds(seconds: float) -> str:
    """A compact human duration: ``1.8ms``, ``12.3s``, ``450us``.

    >>> format_seconds(0.0018)
    '1.8ms'
    >>> format_seconds(2.5)
    '2.50s'
    """
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.1f}ms"
    if seconds >= 1e-6:
        return f"{seconds * 1e6:.0f}us"
    return "0us" if seconds == 0 else f"{seconds * 1e9:.0f}ns"


#: Span attributes surfaced in the tree's annotation column, in order.
_NOTE_ATTRS = (
    "execution",
    "strategy",
    "route",
    "reason",
    "stratum",
    "round",
    "relation",
    "predicate",
    "engine",
    "nodes",
)


class QueryProfile:
    """A finished trace rendered as per-operator rows with durations,
    cardinalities, and % of total — plus aggregate and counter sections.
    """

    def __init__(self, trace: Trace):
        self.trace = trace

    # -- structured views --------------------------------------------------

    def rows(self) -> list[dict[str, Any]]:
        """One dict per span, in open (pre-)order: ``name``, ``depth``,
        ``duration``, ``percent`` of the root span, ``rows`` (output
        cardinality, when the operator noted one), and ``attrs``.
        """
        total = self.trace.duration or 0.0
        out: list[dict[str, Any]] = []

        def walk(sp: Span) -> None:
            out.append(
                {
                    "name": sp.name,
                    "depth": sp.depth,
                    "duration": sp.duration,
                    "percent": (100.0 * sp.duration / total) if total else 0.0,
                    "rows": sp.attributes.get("rows"),
                    "attrs": dict(sp.attributes),
                }
            )
            for child in sp.children:
                walk(child)

        for root in self.trace.roots:
            walk(root)
        return out

    def operator_table(self) -> list[dict[str, Any]]:
        """Per-span-name aggregates from the trace's timing histograms:
        calls, total/mean/max seconds, sorted by total time descending."""
        table = []
        for name, hist in self.trace.histograms.items():
            table.append(
                {
                    "operator": name,
                    "calls": hist.count,
                    "total_seconds": hist.total_seconds,
                    "mean_seconds": hist.mean_seconds,
                    "max_seconds": hist.max_seconds,
                }
            )
        table.sort(key=lambda r: -r["total_seconds"])
        return table

    def counter_totals(self) -> dict[str, dict[str, Any]]:
        """Trace-wide ``{kind: flattened counters}`` for every metricset
        kind any span charged (topmost-span merge, so nothing double
        counts)."""
        totals = reaggregate(trace_events(self.trace))
        return {kind: totals[kind].flatten() for kind in sorted(totals)}

    # -- text rendering ----------------------------------------------------

    def render(self, counters: bool = True) -> str:
        """The full textual report (span tree, operator table, and — unless
        ``counters=False`` — the metricset totals)."""
        lines = [
            f"trace: {self.trace.name}"
            f"{'':<24}total {format_seconds(self.trace.duration)}"
        ]
        name_width = max(
            (2 * r["depth"] + len(r["name"]) for r in self.rows()), default=4
        )
        name_width = max(name_width, 4)
        lines.append(f"{'span':<{name_width}}  {'time':>9} {'%':>6} {'rows':>8}")
        lines.append(f"{'-' * name_width}  {'-' * 9} {'-' * 6} {'-' * 8}")
        for r in self.rows():
            label = "  " * r["depth"] + r["name"]
            rows = "" if r["rows"] is None else str(r["rows"])
            notes = "  ".join(
                f"{k}={r['attrs'][k]}"
                for k in _NOTE_ATTRS
                if k in r["attrs"] and k != "rows"
            )
            line = (
                f"{label:<{name_width}}  {format_seconds(r['duration']):>9} "
                f"{r['percent']:>5.1f}% {rows:>8}"
            )
            if notes:
                line += f"  {notes}"
            lines.append(line)

        table = self.operator_table()
        if table:
            lines.append("")
            lines.append("per-operator totals")
            op_width = max(max(len(r["operator"]) for r in table), 8)
            lines.append(
                f"{'operator':<{op_width}}  {'calls':>6} {'total':>9} "
                f"{'mean':>9} {'max':>9}"
            )
            for r in table:
                lines.append(
                    f"{r['operator']:<{op_width}}  {r['calls']:>6} "
                    f"{format_seconds(r['total_seconds']):>9} "
                    f"{format_seconds(r['mean_seconds']):>9} "
                    f"{format_seconds(r['max_seconds']):>9}"
                )

        if counters:
            totals = self.counter_totals()
            for kind, flat in totals.items():
                interesting = {k: v for k, v in flat.items() if v}
                if not interesting:
                    continue
                lines.append("")
                lines.append(f"{kind} counters")
                width = max(len(k) for k in interesting)
                for key, value in interesting.items():
                    if isinstance(value, float):
                        lines.append(f"  {key:<{width}}  {value:.6g}")
                    else:
                        lines.append(f"  {key:<{width}}  {value}")
        return "\n".join(lines)

    def coverage(self) -> float:
        """The share of the root span's wall clock accounted for by its
        direct children — the acceptance-criterion number (``repro
        profile`` on a triangle workload must exceed 0.9).  1.0 when the
        trace has no root or the root has no duration."""
        if not self.trace.roots:
            return 1.0
        root = self.trace.roots[0]
        if not root.duration:
            return 1.0
        return sum(c.duration for c in root.children) / root.duration
