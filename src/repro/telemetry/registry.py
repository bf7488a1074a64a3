"""The metrics registry: one declaration per counter, one protocol per kind.

Every observability accumulator — the join backend's
:class:`~repro.relational.stats.EvalStats`, the propagation core's
:class:`~repro.consistency.propagation.PropagationStats`, the search
layer's :class:`~repro.csp.solvers.backtracking.SearchStats` and the
service cache's :class:`~repro.service.cache.CacheStats` — is a dataclass
deriving from :class:`MetricSet`.  Its fields are the only place a counter
is named; the base derives everything else from them:

* :meth:`~MetricSet.merge`, :meth:`~MetricSet.reset`,
  :meth:`~MetricSet.as_dict` and :meth:`~MetricSet.summary`;
* :meth:`~MetricSet.snapshot` / :meth:`~MetricSet.counter_delta` — the
  exact counters charged between two points in time (spans use this) —
  and :meth:`~MetricSet.from_counters`, which rebuilds an instance from
  such a delta or a JSONL counter block;
* :meth:`~MetricSet.flatten` / :meth:`~MetricSet.metric_names` — every
  number under a namespaced name (``eval.tuples_scanned``,
  ``propagation.support_checks``, …), the stable vocabulary cross-process
  aggregators key on, and the columns of ``repro stats``;
* :meth:`~MetricSet.collect` / :meth:`~MetricSet.current` — the
  ``ContextVar``-scoped collector behind ``collect_stats`` and
  ``collect_propagation``.

A class named with a *kind* (``"eval"``, ``"propagation"``, ``"search"``)
is a span metric set: :func:`metricset_class` resolves the kind, importing
the declaring module on first use, and :func:`payload` tags ``as_dict()``
with it — the shape ``repro stats --json`` and the JSONL counter events
share, so the CLI and the telemetry plane cannot drift.

:class:`TimingHistogram` adds the piece none of the flat counters carry:
log-scale (power-of-two buckets) wall-clock distributions, mergeable
across traces like every metric set.
"""

from __future__ import annotations

import dataclasses
import importlib
import math
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, ClassVar, Iterable, Iterator, Mapping

__all__ = [
    "METRICSET_KINDS",
    "MetricSet",
    "derived",
    "kind_of",
    "metricset_class",
    "payload",
    "merge_counters",
    "TimingHistogram",
]

# The module declaring each span metric-set kind, imported on first
# lookup: the stats classes live in modules that import the relational
# substrate, and the span tracer must stay importable from the bottom of
# the dependency graph.
_DECLARED_IN = {
    "eval": "repro.relational.stats",
    "propagation": "repro.consistency.propagation",
    "search": "repro.csp.solvers.backtracking",
}

#: The registered metricset kinds, in registration order.
METRICSET_KINDS = tuple(_DECLARED_IN)

# kind -> class, filled as the declaring modules import.
_REGISTERED: dict[str, type["MetricSet"]] = {}

# The roles whose value is a number: what flatten, metric_names and
# summary report.
_NUMBERS = ("count", "derived")


class derived(property):
    """A value a :class:`MetricSet` computes from its fields (``joins``,
    ``hit_rate``, …), placed in the class body where
    :meth:`MetricSet.as_dict` should report it.  It is never stored,
    merged, reset or carried by counter blocks: it recomputes from the
    fields.  One annotated ``-> bool`` is a flag, which ``as_dict`` reports
    but which is no metric."""


def _role(value: Any) -> str:
    """What a class-body declaration is, read off its default: a number is
    a ``count``, a list factory an append-only ``series``, a dict factory a
    per-key ``tally``, a metric-set factory a ``nested`` set, and anything
    else (a ``None`` default) a ``result`` that is no counter."""
    if isinstance(value, derived):
        returns = value.fget.__annotations__.get("return")
        return "flag" if returns in ("bool", bool) else "derived"
    if isinstance(value, dataclasses.Field):
        factory = value.default_factory
        if factory is list:
            return "series"
        if factory is dict:
            return "tally"
        if isinstance(factory, type) and issubclass(factory, MetricSet):
            return "nested"
        value = value.default
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return "count"
    return "result"


@dataclasses.dataclass
class MetricSet:
    """Base of the stats dataclasses: the fields declare the counters.

    A subclass is a ``@dataclass`` whose every field has a default (see
    :func:`_role` for what each default declares) and whose
    :class:`derived` values sit among the fields in the order
    :meth:`as_dict` reports them.  ``class EvalStats(MetricSet,
    kind="eval")`` also registers it as a span metric set.  Counters are
    plain attributes, incremented in place by the code they measure; a
    fresh instance has every counter at zero, and merging is the
    composition law — the stats of a composite run are the merge of the
    stats of its parts.

    >>> from dataclasses import dataclass
    >>> @dataclass
    ... class Tally(MetricSet):
    ...     hits: int = 0
    ...     misses: int = 0
    ...     @derived
    ...     def lookups(self) -> int:
    ...         return self.hits + self.misses
    >>> Tally(hits=2).merge(Tally(misses=1)).as_dict()
    {'hits': 2, 'misses': 1, 'lookups': 3}
    """

    #: The span metric-set kind (``None`` for a set spans do not carry).
    kind: ClassVar[str | None] = None
    #: ``(name, role)`` of every field and derived value, in class-body order.
    _layout: ClassVar[tuple[tuple[str, str], ...]] = ()
    _active: ClassVar[ContextVar]

    def __init_subclass__(cls, kind: str | None = None, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        body = vars(cls)
        fields = body.get("__annotations__", {})
        cls._layout = tuple(
            (name, _role(value))
            for name, value in body.items()
            if name in fields or isinstance(value, derived)
        )
        cls.kind = kind
        cls._active = ContextVar(f"repro_{cls.__name__}", default=None)
        if kind is not None:
            _REGISTERED[kind] = cls

    # -- composition -------------------------------------------------------

    def merge(self, other: MetricSet) -> MetricSet:
        """Fold ``other``'s counters into this object (in place) and return
        it: counts and tallies add, series concatenate, nested sets merge,
        and a result is kept if present, else adopted from ``other``."""
        for name, role in self._layout:
            if role == "count":
                setattr(self, name, getattr(self, name) + getattr(other, name))
            elif role == "series":
                getattr(self, name).extend(getattr(other, name))
            elif role == "tally":
                mine = getattr(self, name)
                for key, n in getattr(other, name).items():
                    mine[key] = mine.get(key, 0) + n
            elif role == "nested":
                getattr(self, name).merge(getattr(other, name))
            elif role == "result" and getattr(self, name) is None:
                setattr(self, name, getattr(other, name))
        return self

    def reset(self) -> None:
        """Return every field to its freshly-built state (a nested set is
        reset in place)."""
        fresh = type(self)()
        for name, role in self._layout:
            if role == "nested":
                getattr(self, name).reset()
            elif role not in ("derived", "flag"):
                setattr(self, name, getattr(fresh, name))

    # -- serialization -----------------------------------------------------

    def as_dict(self) -> dict[str, Any]:
        """A plain-dict snapshot (for JSON output and EXPERIMENTS tables):
        every counter and derived value in declaration order, series and
        tallies copied, a nested set as its own dict; results are left out."""
        out: dict[str, Any] = {}
        for name, role in self._layout:
            if role == "series":
                out[name] = list(getattr(self, name))
            elif role == "tally":
                out[name] = dict(getattr(self, name))
            elif role == "nested":
                out[name] = getattr(self, name).as_dict()
            elif role != "result":
                out[name] = getattr(self, name)
        return out

    def _numbers(self) -> Iterator[tuple[str, Any]]:
        for name, role in self._layout:
            if role in _NUMBERS:
                yield name, getattr(self, name)

    def summary(self) -> str:
        """A short human-readable report: one line per number."""
        numbers = list(self._numbers())
        width = max(len(name) for name, _ in numbers) + 2
        return "\n".join(
            f"{name.replace('_', ' '):<{width}}"
            + (f"{value:.6f}" if isinstance(value, float) else str(value))
            for name, value in numbers
        )

    def flatten(self) -> dict[str, Any]:
        """One flat ``{namespaced_name: value}`` mapping of the numbers —
        counts and derived values; series, tallies, nested sets and flags
        have structure of their own."""
        return {f"{self.kind}.{name}": value for name, value in self._numbers()}

    @classmethod
    def metric_names(cls) -> tuple[str, ...]:
        """The namespaced metric names (``eval.tuples_scanned``, …): the
        keys :meth:`flatten` emits, the vocabulary the docs' migration table
        maps the bare counter names onto."""
        return tuple(
            f"{cls.kind}.{name}" for name, role in cls._layout if role in _NUMBERS
        )

    # -- deltas ------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """A cheap point-in-time snapshot for later :meth:`counter_delta`.

        Counts are copied, tallies shallow-copied, and series recorded by
        *length* only — the delta needs just the suffix appended after the
        snapshot, so a span never pays O(history) to open.  A nested set
        travels as its own kind, so it is left out.
        """
        snap: dict[str, Any] = {}
        for name, role in self._layout:
            if role == "count":
                snap[name] = getattr(self, name)
            elif role == "series":
                snap[name] = len(getattr(self, name))
            elif role == "tally":
                snap[name] = dict(getattr(self, name))
        return snap

    def counter_delta(self, before: Mapping[str, Any]) -> dict[str, Any]:
        """The counters charged since ``before`` (a :meth:`snapshot`).  Zero
        deltas are omitted, so an idle metric set yields ``{}`` — the signal
        a span uses to skip its counter event."""
        delta: dict[str, Any] = {}
        for name, role in self._layout:
            if role == "count":
                d = getattr(self, name) - before.get(name, 0)
                if d:
                    delta[name] = d
            elif role == "series":
                suffix = getattr(self, name)[before.get(name, 0):]
                if suffix:
                    delta[name] = suffix
            elif role == "tally":
                prior = before.get(name, {})
                changed = {
                    key: n - prior.get(key, 0)
                    for key, n in getattr(self, name).items()
                    if n != prior.get(key, 0)
                }
                if changed:
                    delta[name] = changed
        return delta

    @classmethod
    def from_counters(cls, counters: Mapping[str, Any]) -> MetricSet:
        """Rebuild an instance from a counters mapping (a
        :meth:`counter_delta`, or the counter block of a JSONL event).

        Keys that are no counter — derived values like ``joins`` or
        ``hit_rate``, results, unknown names — are ignored: derived values
        recompute from the real fields.
        """
        stats = cls()
        for name, role in cls._layout:
            if name in counters:
                if role == "count":
                    setattr(stats, name, counters[name])
                elif role == "series":
                    setattr(stats, name, list(counters[name]))
                elif role == "tally":
                    setattr(stats, name, dict(counters[name]))
        return stats

    # -- collection --------------------------------------------------------

    @classmethod
    def current(cls) -> Any:
        """The instance of the innermost active :meth:`collect` block of
        this class, if any."""
        return cls._active.get()

    @classmethod
    @contextmanager
    def collect(cls, stats: Any = None) -> Iterator[Any]:
        """Charge this class's counters to ``stats`` (a fresh instance by
        default) for the duration of the ``with`` block.

        The active instance lives in a :class:`contextvars.ContextVar`, so
        concurrent traces (threads, asyncio tasks) never share counters,
        and instrumented code pays one ``ContextVar.get`` per call when no
        block is active.  Nested blocks shadow outer ones: work inside the
        inner block is charged to the inner instance only.
        """
        if stats is None:
            stats = cls()
        token = cls._active.set(stats)
        try:
            yield stats
        finally:
            cls._active.reset(token)


def metricset_class(kind: str) -> type[MetricSet]:
    """The stats dataclass registered under ``kind``.

    >>> metricset_class("eval").__name__
    'EvalStats'
    """
    if kind not in _DECLARED_IN:
        from repro.errors import TelemetryError

        raise TelemetryError(
            f"unknown metricset kind {kind!r}; expected one of {METRICSET_KINDS}"
        )
    if kind not in _REGISTERED:
        importlib.import_module(_DECLARED_IN[kind])
    return _REGISTERED[kind]


def active_metricsets() -> Iterator[tuple[str, MetricSet]]:
    """``(kind, instance)`` for every span metric set with an active
    :meth:`~MetricSet.collect` block (a kind whose module is not imported
    yet cannot have one)."""
    for kind, cls in _REGISTERED.items():
        stats = cls._active.get()
        if stats is not None:
            yield kind, stats


def kind_of(stats: Any) -> str:
    """The registered kind of a live metricset instance."""
    if isinstance(stats, MetricSet) and stats.kind is not None:
        return stats.kind
    from repro.errors import TelemetryError

    raise TelemetryError(
        f"{type(stats).__name__} is not a registered metricset "
        f"(expected one of {METRICSET_KINDS})"
    )


def payload(stats: Any) -> dict[str, Any]:
    """The canonical JSON payload of a metricset: its ``as_dict()`` counters
    tagged with the registered kind.  ``repro stats --json`` and the JSONL
    counter events both emit exactly this shape.
    """
    return {"metricset": kind_of(stats), **stats.as_dict()}


def merge_counters(kind: str, counter_blocks: Iterable[Mapping[str, Any]]) -> MetricSet:
    """Fold many counter blocks into one metricset via its ``merge()`` —
    the reaggregation primitive for JSONL exports."""
    cls = metricset_class(kind)
    total = cls()
    for block in counter_blocks:
        total.merge(cls.from_counters(block))
    return total


class TimingHistogram:
    """A log-scale wall-clock histogram: power-of-two buckets of seconds.

    An observation of ``s`` seconds lands in bucket ``e = floor(log2 s)``
    (so bucket ``-10`` holds durations in ``[2^-10, 2^-9)`` ≈ 1–2 ms);
    sub-microsecond observations clamp into the lowest bucket.  Histograms
    carry exact ``count``/``total_seconds``/``min``/``max`` alongside the
    buckets, merge counter-wise like every other metricset, and answer
    quantile queries at bucket resolution — the shape the unified plane
    needs to aggregate timings across spans and traces without keeping
    every sample.

    >>> h = TimingHistogram()
    >>> for s in (0.001, 0.0015, 0.1):
    ...     h.observe(s)
    >>> h.count, round(h.total_seconds, 4)
    (3, 0.1025)
    >>> h.quantile(0.5) <= h.quantile(1.0)
    True
    """

    #: Observations below 2**MIN_EXP seconds (≈ 1 µs) clamp into MIN_EXP.
    MIN_EXP = -20

    __slots__ = ("buckets", "count", "total_seconds", "min_seconds", "max_seconds")

    def __init__(self) -> None:
        self.buckets: dict[int, int] = {}
        self.count = 0
        self.total_seconds = 0.0
        self.min_seconds = math.inf
        self.max_seconds = 0.0

    def observe(self, seconds: float) -> None:
        """Record one duration."""
        exp = (
            max(math.frexp(seconds)[1] - 1, self.MIN_EXP)
            if seconds > 0
            else self.MIN_EXP
        )
        self.buckets[exp] = self.buckets.get(exp, 0) + 1
        self.count += 1
        self.total_seconds += seconds
        if seconds < self.min_seconds:
            self.min_seconds = seconds
        if seconds > self.max_seconds:
            self.max_seconds = seconds

    def merge(self, other: "TimingHistogram") -> "TimingHistogram":
        """Fold ``other`` into this histogram (in place) and return it."""
        for exp, n in other.buckets.items():
            self.buckets[exp] = self.buckets.get(exp, 0) + n
        self.count += other.count
        self.total_seconds += other.total_seconds
        self.min_seconds = min(self.min_seconds, other.min_seconds)
        self.max_seconds = max(self.max_seconds, other.max_seconds)
        return self

    def quantile(self, q: float) -> float:
        """An upper bound on the ``q``-quantile (bucket resolution): the
        top edge of the bucket where the cumulative count crosses
        ``q * count``.  0.0 for an empty histogram."""
        if not self.count:
            return 0.0
        target = q * self.count
        seen = 0
        for exp in sorted(self.buckets):
            seen += self.buckets[exp]
            if seen >= target:
                return min(2.0 ** (exp + 1), self.max_seconds)
        return self.max_seconds

    @property
    def mean_seconds(self) -> float:
        """Arithmetic mean of the observed durations (0.0 when empty)."""
        return self.total_seconds / self.count if self.count else 0.0

    def as_dict(self) -> dict[str, Any]:
        """A JSON-able snapshot: exact aggregates plus the sparse buckets
        (keys stringified for JSON)."""
        return {
            "count": self.count,
            "total_seconds": self.total_seconds,
            "min_seconds": self.min_seconds if self.count else 0.0,
            "max_seconds": self.max_seconds,
            "buckets": {str(exp): n for exp, n in sorted(self.buckets.items())},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TimingHistogram":
        """Inverse of :meth:`as_dict` (for reaggregating exports)."""
        hist = cls()
        hist.count = int(data.get("count", 0))
        hist.total_seconds = float(data.get("total_seconds", 0.0))
        hist.min_seconds = (
            float(data.get("min_seconds", 0.0)) if hist.count else math.inf
        )
        hist.max_seconds = float(data.get("max_seconds", 0.0))
        hist.buckets = {
            int(exp): int(n) for exp, n in dict(data.get("buckets", {})).items()
        }
        return hist
