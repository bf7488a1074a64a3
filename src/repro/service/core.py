"""The query service front: maintenance plane + cache plane behind one API.

:class:`QueryService` owns an
:class:`~repro.datalog.incremental.IncrementalEvaluation` (the maintained
least fixpoint) and a :class:`~repro.service.cache.ResultCache` (answers
keyed on the canonical form of minimized queries).  ``ask`` minimizes the
incoming conjunctive query once, probes the cache, and only evaluates on a
miss; ``update`` applies an EDB batch incrementally and invalidates
exactly the cache entries whose bodies mention a changed predicate.
Per-operation latencies land in two
:class:`~repro.telemetry.registry.TimingHistogram` instances so a service
run can report P50/P99 without external tooling.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.cq.containment import minimize
from repro.cq.evaluate import evaluate
from repro.cq.parser import parse_query
from repro.cq.query import ConjunctiveQuery
from repro.datalog.incremental import IncrementalEvaluation, UpdateReport
from repro.datalog.syntax import Program
from repro.relational.relation import Relation
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
    >>> svc.ask("Q(X, Y) :- T(X, Y)").outcome  # invalidated by the update
    'miss'

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
        evaluation (``None``/"auto"/"wcoj"/...).
    deletion:
        Deletion algorithm for the maintenance plane (``"dred"`` or
        ``"counting"``).
    cache_capacity / containment_probes:
        Forwarded to :class:`~repro.service.cache.ResultCache`.
    """

    def __init__(
        self,
        program: Program,
        database: Mapping[str, Iterable[tuple]] | None = None,
        *,
        strategy: str | None = None,
        deletion: str = "dred",
        cache_capacity: int = 512,
        containment_probes: int = 8,
    ):
        self._strategy = strategy
        self._engine = IncrementalEvaluation(
            program, database, strategy=strategy, deletion=deletion
        )
        self.cache = ResultCache(
            capacity=cache_capacity, containment_probes=containment_probes
        )
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
        (or projectable) queries.  Anything but query text or a
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
            outcome, result = self.cache.lookup(minimized)
            if result is None:
                result = evaluate(
                    minimized, self._engine.as_structure(), strategy=self._strategy
                )
                self.cache.store(minimized, result)
            if sp:
                sp.note(outcome=outcome, rows=len(result))
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
        """Apply one EDB update batch and invalidate affected cache entries."""
        started = time.perf_counter()
        with span("service.update") as sp:
            report = self._engine.apply(inserts, deletes)
            dropped = self.cache.invalidate(report.dirty)
            if sp:
                sp.note(
                    rows_added=report.rows_added,
                    rows_removed=report.rows_removed,
                    cache_dropped=dropped,
                )
        self.update_latency.observe(time.perf_counter() - started)
        return report

    # -- reporting ------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """One dict of cache counters, latency histograms, and generation."""
        return {
            "generation": self._engine.generation,
            "cache": self.cache.stats.as_dict(),
            "query_latency": histogram_summary(self.query_latency),
            "update_latency": histogram_summary(self.update_latency),
        }
