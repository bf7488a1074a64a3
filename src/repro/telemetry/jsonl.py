"""JSONL trace export: spans and counters as a line-per-event stream.

A finished :class:`~repro.telemetry.spans.Trace` flattens into three event
types, one JSON object per line, in chronological order::

    {"type": "span_open",  "id": 3, "parent": 0, "name": "natural_join",
     "t": 0.00012, "attrs": {"execution": "indexed"}}
    {"type": "counter",    "id": 3, "metricset": "eval",
     "counters": {"tuples_scanned": 52, ...}}
    {"type": "span_close", "id": 3, "t": 0.00078, "duration": 0.00066}

``counter`` events carry the same keys as the metricset's ``as_dict()``
payload (see :func:`repro.telemetry.registry.payload`), restricted to the
counters actually charged inside the span, and are emitted immediately
before the span's ``span_close``.  Times are seconds relative to the trace
start; the first ``span_open`` (the root) carries the trace's Unix
``wall_start`` in its attrs, so multi-process streams can be aligned.

The format is designed to **reaggregate**: :func:`reaggregate` folds a
stream back into one metricset instance per kind using the dataclasses'
own ``merge()``, counting each kind at its topmost carrying span only —
so the totals equal the in-process counters exactly (asserted in
``tests/telemetry/test_jsonl.py``).  That is the contract the future
cluster coordinator relies on: per-worker JSONL streams concatenate and
merge into fleet-wide totals with no information loss.

:func:`validate_events` checks the schema (the same checks the checked-in
``tools/validate_trace.py`` script applies standalone in CI).
"""

from __future__ import annotations

import json
from typing import IO, Any, Iterable, Iterator, Mapping

from repro.errors import TelemetryError
from repro.telemetry.registry import (
    METRICSET_KINDS,
    TimingHistogram,
    merge_counters,
)
from repro.telemetry.spans import Trace

__all__ = [
    "trace_events",
    "dumps",
    "write_jsonl",
    "parse_jsonl",
    "validate_events",
    "reaggregate",
    "reaggregate_histograms",
]


def trace_events(trace: Trace) -> Iterator[dict[str, Any]]:
    """The trace as a chronological stream of event dicts."""
    first = True
    for action, sp in trace.events:
        if action == "open":
            attrs = dict(sp.attributes)
            if first:
                attrs.setdefault("trace", trace.name)
                attrs.setdefault("wall_start", trace.wall_start)
                first = False
            yield {
                "type": "span_open",
                "id": sp.id,
                "parent": sp.parent_id,
                "name": sp.name,
                "t": sp.t0,
                "attrs": attrs,
            }
        else:
            for kind in METRICSET_KINDS:
                counters = sp.counters.get(kind)
                if counters:
                    yield {
                        "type": "counter",
                        "id": sp.id,
                        "metricset": kind,
                        "counters": counters,
                    }
            yield {
                "type": "span_close",
                "id": sp.id,
                "t": sp.t1,
                "duration": sp.duration,
            }


def dumps(trace: Trace) -> str:
    """The whole trace as a JSONL string (one event per line)."""
    return "\n".join(json.dumps(e, sort_keys=True) for e in trace_events(trace))


def write_jsonl(trace: Trace, fp: IO[str]) -> int:
    """Write the trace's events to ``fp``, one JSON line each; return the
    number of events written."""
    n = 0
    for event in trace_events(trace):
        fp.write(json.dumps(event, sort_keys=True))
        fp.write("\n")
        n += 1
    return n


def parse_jsonl(lines: Iterable[str]) -> list[dict[str, Any]]:
    """Parse a JSONL stream back into event dicts, validating the schema.

    Blank lines are skipped.  Raises
    :class:`~repro.errors.TelemetryError` on the first malformed line or
    schema violation.
    """
    events: list[dict[str, Any]] = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TelemetryError(f"line {lineno}: not valid JSON ({exc})") from None
        if not isinstance(event, dict):
            raise TelemetryError(f"line {lineno}: event is not a JSON object")
        events.append(event)
    problems = validate_events(events)
    if problems:
        raise TelemetryError(
            "invalid trace stream: " + "; ".join(problems[:5])
        )
    return events


def validate_events(events: Iterable[Mapping[str, Any]]) -> list[str]:
    """Schema-check an event stream; return a list of problems (empty when
    the stream is well-formed).

    Checks: known event types with the required, correctly-typed keys;
    spans open before they emit counters or close; LIFO (properly nested)
    closes; every opened span closed exactly once; counter metricsets
    drawn from the registered kinds.  Span ids restart in every trace, so
    a root ``span_open`` reusing an id while no span is open starts the
    next of several concatenated streams; reusing one inside an open span
    is an error.
    """
    problems: list[str] = []
    opened: dict[int, str] = {}
    closed: set[int] = set()
    stack: list[int] = []

    def bad(i: int, msg: str) -> None:
        problems.append(f"event {i}: {msg}")

    def unclosed() -> None:
        for sid in opened:
            if sid not in closed:
                problems.append(f"span {sid} ({opened[sid]!r}) never closed")

    for i, event in enumerate(events):
        etype = event.get("type")
        if etype == "span_open":
            sid, parent = event.get("id"), event.get("parent")
            if not isinstance(sid, int):
                bad(i, "span_open without integer 'id'")
                continue
            if sid in opened:
                if stack or parent is not None:
                    bad(i, f"span {sid} opened twice")
                else:
                    # A root reusing an id starts the next of several
                    # concatenated streams, whose ids start over.
                    unclosed()
                    opened, closed = {}, set()
            if not isinstance(event.get("name"), str):
                bad(i, f"span {sid} has no string 'name'")
            if not isinstance(event.get("t"), (int, float)):
                bad(i, f"span {sid} has no numeric 't'")
            if not isinstance(event.get("attrs"), dict):
                bad(i, f"span {sid} has no 'attrs' object")
            if parent is not None and parent not in opened:
                bad(i, f"span {sid} has unknown parent {parent}")
            expected = stack[-1] if stack else None
            if parent != expected:
                bad(i, f"span {sid} parent {parent} != innermost open {expected}")
            opened[sid] = str(event.get("name"))
            stack.append(sid)
        elif etype == "counter":
            sid = event.get("id")
            if sid not in opened or sid in closed:
                bad(i, f"counter for span {sid} which is not open")
            if event.get("metricset") not in METRICSET_KINDS:
                bad(i, f"unknown metricset {event.get('metricset')!r}")
            if not isinstance(event.get("counters"), dict):
                bad(i, "counter event without 'counters' object")
        elif etype == "span_close":
            sid = event.get("id")
            if sid not in opened:
                bad(i, f"span_close for unopened span {sid}")
                continue
            if sid in closed:
                bad(i, f"span {sid} closed twice")
                continue
            if not stack or stack[-1] != sid:
                bad(i, f"span {sid} closed out of order")
                if sid in stack:
                    while stack and stack[-1] != sid:
                        stack.pop()
            if stack and stack[-1] == sid:
                stack.pop()
            if not isinstance(event.get("duration"), (int, float)):
                bad(i, f"span {sid} close without numeric 'duration'")
            closed.add(sid)
        else:
            bad(i, f"unknown event type {etype!r}")
    unclosed()
    return problems


def _topmost_counter_events(
    events: Iterable[Mapping[str, Any]],
) -> Iterator[Mapping[str, Any]]:
    """Counter events whose span has no ancestor that also carries the same
    metricset — the double-count-free subset (span counters are inclusive
    of their descendants).

    Span ids are unique within one trace, so a ``span_open`` reusing an id
    starts the next of several concatenated streams: spans are keyed by
    ``(stream, id)`` and one stream's ancestry never shadows another's.
    """
    parent: dict[tuple[int, int], tuple[int, int] | None] = {}
    counters: list[tuple[tuple[int, int], Mapping[str, Any]]] = []
    stream, opened = 0, set()
    for event in events:
        if event.get("type") == "span_open":
            if event["id"] in opened:
                stream, opened = stream + 1, set()
            opened.add(event["id"])
            up = event.get("parent")
            parent[(stream, event["id"])] = None if up is None else (stream, up)
        elif event.get("type") == "counter":
            counters.append(((stream, event["id"]), event))
    carrying = {(key, event["metricset"]) for key, event in counters}
    for key, event in counters:
        ancestor = parent.get(key)
        while ancestor is not None and (ancestor, event["metricset"]) not in carrying:
            ancestor = parent.get(ancestor)
        if ancestor is None:
            yield event


def reaggregate(events: Iterable[Mapping[str, Any]]) -> dict[str, Any]:
    """Fold an event stream back into per-kind metricset totals.

    Returns ``{kind: metricset}`` for every kind that appears.  Each
    metricset is rebuilt with
    :meth:`repro.telemetry.registry.MetricSet.from_counters` and folded with the
    dataclass's own ``merge()``; only topmost counter events contribute,
    so the result equals the in-process totals of the traced run — and
    streams from several processes can simply be concatenated first.
    """
    blocks: dict[str, list[Mapping[str, Any]]] = {}
    for event in _topmost_counter_events(events):
        blocks.setdefault(event["metricset"], []).append(event["counters"])
    return {kind: merge_counters(kind, bs) for kind, bs in blocks.items()}


def reaggregate_histograms(
    events: Iterable[Mapping[str, Any]],
) -> dict[str, TimingHistogram]:
    """Rebuild the per-span-name timing histograms from an event stream
    (every ``span_close`` duration observed under its span's name)."""
    names: dict[int, str] = {}
    histograms: dict[str, TimingHistogram] = {}
    for event in events:
        if event.get("type") == "span_open":
            names[event["id"]] = event["name"]
        elif event.get("type") == "span_close":
            name = names.get(event["id"], "?")
            hist = histograms.get(name)
            if hist is None:
                hist = histograms[name] = TimingHistogram()
            hist.observe(event["duration"])
    return histograms
