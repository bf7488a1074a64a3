"""The query service front: maintenance plane + cache plane behind one API.

:class:`QueryService` owns an
:class:`~repro.datalog.incremental.IncrementalEvaluation` (the maintained
least fixpoint) and a :class:`~repro.service.cache.ResultCache` (answers
keyed on the canonical form of minimized queries).  ``ask`` minimizes the
incoming conjunctive query once, probes the cache, and only evaluates on a
miss; ``update`` applies an EDB batch incrementally and marks stale
exactly the cache entries whose bodies mention a changed predicate.  The
service keeps the structure the batch superseded and the batch's
:class:`~repro.datalog.incremental.UpdateReport` for one generation, so
the next probe that reaches a stale entry brings its answer forward from
the batch's deltas (:func:`~repro.cq.evaluate.refresh_answer`) instead of
evaluating the query again.  Per-operation latencies land in two
:class:`~repro.telemetry.registry.TimingHistogram` instances so a service
run can report P50/P99 without external tooling.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.cq.containment import minimize
from repro.cq.evaluate import evaluate, refresh_answer
from repro.cq.parser import parse_query
from repro.cq.query import ConjunctiveQuery
from repro.datalog.incremental import IncrementalEvaluation, UpdateReport
from repro.datalog.syntax import Program
from repro.relational.relation import Relation
from repro.relational.structure import Structure
from repro.service.cache import ResultCache
from repro.telemetry.registry import TimingHistogram
from repro.telemetry.spans import span

__all__ = ["QueryService", "ServiceAnswer", "histogram_summary"]


def histogram_summary(hist: TimingHistogram) -> dict[str, Any]:
    """A :meth:`~repro.telemetry.registry.TimingHistogram.as_dict` snapshot
    enriched with the mean and the P50/P99 quantiles the service reports."""
    data = hist.as_dict()
    data["mean_seconds"] = hist.mean_seconds
    data["p50"] = hist.quantile(0.50)
    data["p99"] = hist.quantile(0.99)
    return data


@dataclass(frozen=True)
class ServiceAnswer:
    """One answered query: the result relation, how the cache fared
    (``"exact"``/``"equivalence"``/``"projection"``/``"miss"``), and the
    wall-clock seconds the service spent on it."""

    result: Relation
    outcome: str
    seconds: float

    @property
    def from_cache(self) -> bool:
        return self.outcome != "miss"


class QueryService:
    """A resident Datalog + conjunctive-query service.

    >>> from repro.datalog.library import transitive_closure_program
    >>> svc = QueryService(
    ...     transitive_closure_program(), {"E": {(1, 2), (2, 3)}}
    ... )
    >>> sorted(svc.query("Q(X, Y) :- T(X, Y)").tuples)
    [(1, 2), (1, 3), (2, 3)]
    >>> svc.ask("Q2(A, B) :- T(A, B)").outcome  # equivalent, renamed
    'equivalence'
    >>> report = svc.update(inserts={"E": {(3, 4)}})
    >>> answer = svc.ask("Q(X, Y) :- T(X, Y)")  # refreshed from the deltas
    >>> answer.outcome, svc.cache.stats.refreshes
    ('exact', 1)
    >>> sorted(answer.result.tuples)
    [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]

    Parameters
    ----------
    program:
        The Datalog program whose fixpoint the maintenance plane keeps
        materialized; queries are evaluated over EDB and IDB predicates
        alike.
    database:
        Initial EDB facts (``{predicate: rows}``).
    strategy:
        Join strategy forwarded to both the maintenance plane and query
        evaluation: ``None`` (the default), an order, an execution, or an
        ``order+execution`` spec of
        :func:`~repro.relational.planner.parse_strategy`.  ``"auto"`` is
        not one of them: the maintenance plane's rule joins reject it with
        :class:`~repro.errors.SolverError`.  Refreshes run on the seeded
        kernel of :func:`~repro.relational.algebra.join_all` whatever the
        strategy: every strategy gives the same answer.
    cache_capacity / containment_probes:
        Forwarded to :class:`~repro.service.cache.ResultCache`.
    """

    def __init__(
        self,
        program: Program,
        database: Mapping[str, Iterable[tuple]] | None = None,
        *,
        strategy: str | None = None,
        cache_capacity: int = 512,
        containment_probes: int = 8,
    ):
        self._strategy = strategy
        self._engine = IncrementalEvaluation(program, database, strategy=strategy)
        self.cache = ResultCache(
            capacity=cache_capacity,
            containment_probes=containment_probes,
            refresh=self._refresh,
        )
        # The structure the last dirty batch superseded and that batch's
        # report, kept while some cache entry is stale.
        self._previous: tuple[Structure, UpdateReport] | None = None
        self.query_latency = TimingHistogram()
        self.update_latency = TimingHistogram()

    @property
    def engine(self) -> IncrementalEvaluation:
        """The maintenance plane (read access for inspection/tests)."""
        return self._engine

    @property
    def generation(self) -> int:
        """The maintenance plane's generation counter (bumps per dirty batch)."""
        return self._engine.generation

    # -- query plane ----------------------------------------------------------

    def ask(self, query: str | ConjunctiveQuery) -> ServiceAnswer:
        """Answer a conjunctive query over the maintained database.

        The query is minimized (its core computed) once; the cache is
        probed with the minimized form, and only a miss evaluates against
        the data — after which the result is stored for future equivalent
        (or projectable) queries.  A hit on an entry the last batch made
        stale refreshes it first (counted in ``cache.stats.refreshes``).
        Anything but query text or a
        :class:`~repro.cq.query.ConjunctiveQuery` raises :class:`TypeError`.
        """
        if isinstance(query, str):
            query = parse_query(query)
        elif not isinstance(query, ConjunctiveQuery):
            raise TypeError(
                "a query must be query text or a ConjunctiveQuery, "
                f"not {type(query).__name__}"
            )
        started = time.perf_counter()
        with span("service.query", head=query.head_name) as sp:
            minimized = minimize(query)
            refreshes = self.cache.stats.refreshes
            outcome, result = self.cache.lookup(minimized)
            if result is None:
                result = evaluate(
                    minimized, self._engine.as_structure(), strategy=self._strategy
                )
                self.cache.store(minimized, result)
            if self._previous is not None and not self.cache.stale:
                self._previous = None  # no entry needs the old generation
            if sp:
                sp.note(
                    outcome=outcome,
                    rows=len(result),
                    refreshed=self.cache.stats.refreshes != refreshes,
                )
        seconds = time.perf_counter() - started
        self.query_latency.observe(seconds)
        return ServiceAnswer(result, outcome, seconds)

    def query(self, query: str | ConjunctiveQuery) -> Relation:
        """Like :meth:`ask` but returning just the result relation."""
        return self.ask(query).result

    # -- maintenance plane ----------------------------------------------------

    def update(
        self,
        inserts: Mapping[str, Iterable[tuple]] | None = None,
        deletes: Mapping[str, Iterable[tuple]] | None = None,
    ) -> UpdateReport:
        """Apply one EDB update batch and mark affected cache entries stale.

        A dirty batch drops the entries still stale from the batch before
        and keeps the structure it superseded, with its report, until no
        stale entry remains (nothing is built for an empty cache)."""
        started = time.perf_counter()
        with span("service.update") as sp:
            before = self._engine.as_structure() if len(self.cache) else None
            report = self._engine.apply(inserts, deletes)
            stale = 0
            if report.dirty:
                stale = self.cache.invalidate(report.dirty)
                self._previous = (before, report) if self.cache.stale else None
            if sp:
                sp.note(
                    rows_added=report.rows_added,
                    rows_removed=report.rows_removed,
                    cache_stale=stale,
                )
        self.update_latency.observe(time.perf_counter() - started)
        return report

    def _refresh(self, query: ConjunctiveQuery, answer: Relation) -> Relation | None:
        """The cache's refresher: ``answer`` brought forward over the last
        dirty batch (``None`` when no batch is kept)."""
        if self._previous is None:
            return None
        before, report = self._previous
        return refresh_answer(
            query,
            answer,
            before,
            self._engine.as_structure(),
            {**report.edb_added, **report.idb_added},
            {**report.edb_removed, **report.idb_removed},
        )

    # -- reporting ------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """One dict of cache counters, latency histograms, and generation."""
        return {
            "generation": self._engine.generation,
            "cache": self.cache.stats.as_dict(),
            "query_latency": histogram_summary(self.query_latency),
            "update_latency": histogram_summary(self.update_latency),
        }
