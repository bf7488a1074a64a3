"""Hierarchical span tracing: *where* the work happened, not just how much.

The flat counter layers (``EvalStats``, ``PropagationStats``,
``SearchStats``) say how many probes, revisions, and nodes an evaluation
cost — never where in the plan tree, in what order, or how long each part
took.  This module adds that missing dimension: a **span** is one named,
timed phase of an evaluation (a planning call, one join operator, a
propagation fixpoint, a batch of search nodes), spans nest into a tree, and
each span carries the exact stats deltas charged while it was open.

Scoping follows :func:`repro.relational.stats.collect_stats` exactly: the
active :class:`Trace` lives in a :class:`contextvars.ContextVar`, so
concurrent traces (threads, asyncio tasks, nested blocks) never share
state, and when no trace is active the instrumented hot paths pay one
``ContextVar`` lookup plus a no-op context manager per operator — nothing
is allocated and nothing is recorded.

>>> from repro.telemetry import tracing, span
>>> with tracing("demo") as trace:
...     with span("phase", step=1):
...         pass
>>> [s.name for s in trace.spans]
['demo', 'phase']
>>> trace.spans[1].parent_id == trace.spans[0].id
True

Instrumented call sites use the module-level :func:`span` helper::

    with span("natural_join", execution=mode) as sp:
        result = ...
        if sp:                       # False when tracing is off
            sp.note(emitted=len(result))

Counter attribution: while a span is open, the deltas of every metric set
with an active ``collect`` block (``collect_stats``,
``collect_propagation``) are captured automatically at close (inclusive
of descendants).  Phases whose stats object is passed
explicitly rather than installed in the ContextVar (propagation fixpoints,
search batches) attach their deltas with :meth:`Span.add_counters`, which
takes precedence over the automatic capture for that metricset.  The JSONL
reaggregator (:mod:`repro.telemetry.jsonl`) counts each metricset at its
*topmost* carrying span only, so inclusive deltas never double count.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from time import perf_counter
from typing import Any, Iterator

from repro.telemetry.registry import TimingHistogram, active_metricsets

__all__ = [
    "Span",
    "Trace",
    "tracing",
    "span",
    "current_trace",
    "current_span",
]

class _NullSpan:
    """The do-nothing span returned when no trace is active.

    A singleton: entering, exiting, annotating, and closing all cost one
    attribute lookup and nothing else, and it is falsy so call sites can
    guard expensive annotations with ``if sp:``.
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False

    def __bool__(self) -> bool:
        return False

    def note(self, **attributes: Any) -> None:
        """No-op."""

    def add_counters(self, kind: str, counters: dict[str, Any]) -> None:
        """No-op."""

    def close(self) -> None:
        """No-op."""


_NULL_SPAN = _NullSpan()


class Span:
    """One named, timed phase of a trace.

    ``t0``/``t1`` are offsets in seconds from the trace start;
    ``attributes`` holds the JSON-able annotations given at open plus any
    :meth:`note` calls; ``counters`` maps metricset kind (``"eval"``,
    ``"propagation"``, ``"search"``) to the counter deltas charged while
    the span was open, descendants included.
    """

    __slots__ = (
        "id",
        "name",
        "parent_id",
        "depth",
        "attributes",
        "t0",
        "t1",
        "counters",
        "children",
        "_trace",
        "_snaps",
        "_explicit",
    )

    def __init__(
        self,
        trace: "Trace",
        span_id: int,
        name: str,
        parent_id: int | None,
        depth: int,
        attributes: dict[str, Any],
    ):
        self.id = span_id
        self.name = name
        self.parent_id = parent_id
        self.depth = depth
        self.attributes = attributes
        self.t0 = 0.0
        self.t1: float | None = None
        self.counters: dict[str, dict[str, Any]] = {}
        self.children: list["Span"] = []
        self._trace = trace
        self._snaps: dict[str, Any] = {}
        self._explicit: set[str] = set()

    def __bool__(self) -> bool:
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.t1 is None else f"{self.duration:.6f}s"
        return f"Span(#{self.id} {self.name!r}, {state})"

    @property
    def duration(self) -> float:
        """Wall-clock seconds between open and close (0.0 while open)."""
        return (self.t1 - self.t0) if self.t1 is not None else 0.0

    def note(self, **attributes: Any) -> None:
        """Attach (or overwrite) JSON-able attributes on the span."""
        self.attributes.update(attributes)

    def add_counters(self, kind: str, counters: dict[str, Any]) -> None:
        """Attach an explicit counter delta for ``kind``.

        Used by phases whose stats accumulator is an argument rather than
        the ContextVar-installed object (propagation fixpoints, search node
        batches).  Explicit counters suppress the automatic ContextVar
        capture for the same kind at close, so nothing is counted twice.
        """
        if not counters:
            return
        self._explicit.add(kind)
        into = self.counters.setdefault(kind, {})
        for key, value in counters.items():
            if isinstance(value, list):
                into.setdefault(key, []).extend(value)
            elif isinstance(value, dict):
                sub = into.setdefault(key, {})
                for k, n in value.items():
                    sub[k] = sub.get(k, 0) + n
            else:
                into[key] = into.get(key, 0) + value

    def close(self) -> None:
        """Close the span (it must be the innermost open one)."""
        self._trace.close_span(self)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc: Any) -> bool:
        self.close()
        return False


class Trace:
    """A forest of spans plus per-operator timing histograms.

    Spans are held in open order in :attr:`spans`; top-level spans (no
    parent) in :attr:`roots`.  :attr:`histograms` accumulates one log-scale
    :class:`~repro.telemetry.registry.TimingHistogram` per span name as
    spans close.  A finished trace serializes to JSONL events through
    :mod:`repro.telemetry.jsonl` and renders as an EXPLAIN-ANALYZE-style
    tree through :class:`repro.telemetry.profile.QueryProfile`.
    """

    def __init__(self, name: str = "trace"):
        self.name = name
        #: Unix timestamp of trace creation (cross-process alignment).
        self.wall_start = time.time()
        self.spans: list[Span] = []
        self.roots: list[Span] = []
        self.histograms: dict[str, TimingHistogram] = {}
        #: The chronological event log: ("open"|"close", span) pairs.
        self.events: list[tuple[str, Span]] = []
        self._stack: list[Span] = []
        self._t0 = perf_counter()

    # -- span lifecycle ----------------------------------------------------

    def open_span(self, name: str, attributes: dict[str, Any]) -> Span:
        """Open a child of the innermost open span (or a new root)."""
        parent = self._stack[-1] if self._stack else None
        sp = Span(
            self,
            len(self.spans),
            name,
            parent.id if parent is not None else None,
            parent.depth + 1 if parent is not None else 0,
            attributes,
        )
        self.spans.append(sp)
        if parent is not None:
            parent.children.append(sp)
        else:
            self.roots.append(sp)
        for kind, stats in active_metricsets():
            sp._snaps[kind] = stats.snapshot()
        self._stack.append(sp)
        self.events.append(("open", sp))
        sp.t0 = perf_counter() - self._t0
        return sp

    def close_span(self, sp: Span) -> None:
        """Close ``sp``; it must be the innermost open span."""
        sp.t1 = perf_counter() - self._t0
        if not self._stack or self._stack[-1] is not sp:
            from repro.errors import TelemetryError

            open_name = self._stack[-1].name if self._stack else None
            raise TelemetryError(
                f"span {sp.name!r} closed out of order "
                f"(innermost open span: {open_name!r})"
            )
        self._stack.pop()
        for kind, stats in active_metricsets():
            before = sp._snaps.get(kind)
            if before is None or kind in sp._explicit:
                continue
            delta = stats.counter_delta(before)
            if delta:
                sp.counters[kind] = delta
        hist = self.histograms.get(sp.name)
        if hist is None:
            hist = self.histograms[sp.name] = TimingHistogram()
        hist.observe(sp.duration)
        self.events.append(("close", sp))

    # -- derived views -----------------------------------------------------

    @property
    def duration(self) -> float:
        """Total wall-clock seconds covered by the top-level spans."""
        return sum(root.duration for root in self.roots)

    def find(self, name: str) -> list[Span]:
        """All spans with the given name, in open order."""
        return [s for s in self.spans if s.name == name]

    def total_counters(self, kind: str) -> Any:
        """The trace-wide totals for one metricset kind: what the trace's
        JSONL export reaggregates to (each kind counted at its *topmost*
        carrying spans, so inclusive deltas never double count).  Returns a
        fresh metricset instance.
        """
        from repro.telemetry.jsonl import reaggregate, trace_events
        from repro.telemetry.registry import metricset_class

        totals = reaggregate(trace_events(self))
        return totals[kind] if kind in totals else metricset_class(kind)()


# The active trace.  A ContextVar (never a module global) keeps concurrent
# traces — threads, asyncio tasks, nested blocks — fully isolated, exactly
# like ``collect_stats`` / ``collect_propagation``.
_TRACE: ContextVar[Trace | None] = ContextVar("repro_trace", default=None)


def current_trace() -> Trace | None:
    """The innermost active trace, or ``None`` when tracing is off."""
    return _TRACE.get()


def current_span() -> Span | None:
    """The innermost open span of the active trace, if any."""
    trace = _TRACE.get()
    if trace is None or not trace._stack:
        return None
    return trace._stack[-1]


def span(name: str, **attributes: Any) -> Any:
    """Open a span on the active trace — or return the no-op singleton.

    This is the call the instrumented hot paths make: when no trace is
    installed the cost is one ``ContextVar`` lookup and the shared
    :class:`_NullSpan` is returned, so tracing-off overhead stays within
    the noise of the operators themselves (guarded in
    ``benchmarks/bench_micro_algebra.py``).
    """
    trace = _TRACE.get()
    if trace is None:
        return _NULL_SPAN
    return trace.open_span(name, attributes)


@contextmanager
def tracing(name: str = "trace", trace: Trace | None = None) -> Iterator[Trace]:
    """Trace every instrumented phase inside the ``with`` block.

    A root span named ``name`` wraps the whole block, so child durations
    and counters always have a total to be measured against.  Nested
    blocks shadow outer ones (work inside the inner block is recorded on
    the inner trace only); pass an existing :class:`Trace` to accumulate
    several blocks into one trace — each block adds one more top-level
    span.

    >>> with tracing() as outer:
    ...     with tracing() as inner:
    ...         _ = span("x").close()
    >>> [s.name for s in inner.spans]
    ['trace', 'x']
    >>> outer.find("x")
    []
    """
    if trace is None:
        trace = Trace(name)
    token = _TRACE.set(trace)
    root = trace.open_span(name, {})
    try:
        yield trace
    finally:
        trace.close_span(root)
        _TRACE.reset(token)
