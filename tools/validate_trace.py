#!/usr/bin/env python3
"""Standalone JSONL trace validator (no repro import).

Reads a trace event stream from stdin (or the files given as arguments)
and checks the schema that ``repro profile --jsonl`` / ``repro trace``
emit: known event types with required keys, spans opened before they emit
counters or close, properly nested (LIFO) closes, every span closed
exactly once.  Several traces may be concatenated: a root span reusing an
id while no span is open starts the next one.  Exits 0 on a well-formed
stream, 1 otherwise, printing each problem on stderr — the CI
profile-smoke step pipes the CLI output straight through this script.

Usage::

    python -m repro profile --workload join --jsonl | python tools/validate_trace.py
    python tools/validate_trace.py trace.jsonl
    (python -m repro trace --workload search;
     python -m repro trace --workload triangle) | python tools/validate_trace.py
"""

from __future__ import annotations

import json
import sys
from typing import Any, Iterable

METRICSET_KINDS = ("eval", "propagation", "search")


def parse_lines(lines: Iterable[str]) -> tuple[list[dict[str, Any]], list[str]]:
    """Parse JSONL lines; return (events, problems)."""
    events: list[dict[str, Any]] = []
    problems: list[str] = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            problems.append(f"line {lineno}: not valid JSON ({exc})")
            continue
        if not isinstance(event, dict):
            problems.append(f"line {lineno}: event is not a JSON object")
            continue
        events.append(event)
    return events, problems


def validate(events: Iterable[dict[str, Any]]) -> list[str]:
    """Schema-check an event stream; return the list of problems."""
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


def main(argv: list[str]) -> int:
    if argv:
        lines: list[str] = []
        for path in argv:
            with open(path, encoding="utf-8") as fp:
                lines.extend(fp)
    else:
        lines = list(sys.stdin)
    events, problems = parse_lines(lines)
    problems += validate(events)
    if problems:
        for problem in problems:
            print(f"validate_trace: {problem}", file=sys.stderr)
        return 1
    spans = sum(1 for e in events if e.get("type") == "span_open")
    counters = sum(1 for e in events if e.get("type") == "counter")
    print(f"validate_trace: OK — {spans} spans, {counters} counter events")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
