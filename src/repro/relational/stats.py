"""Execution statistics for the relational algebra — the observability layer.

Marx (*Modern Lower Bound Techniques in Database Theory and Constraint
Satisfaction*, 2022) identifies the **intermediate-relation cardinality** as
the quantity that governs join cost; this module makes it observable.  An
:class:`EvalStats` object accumulates, per algebra operator:

* ``tuples_scanned`` — rows read from operand relations,
* ``hash_probes`` — lookups into a join's hash index,
* ``index_builds`` — hash indexes actually built (a memoized
  :meth:`~repro.relational.relation.Relation.index_on` hit builds nothing),
* ``index_hits`` / ``probe_misses`` — probes that found / did not find a
  matching key in the index,
* ``tuples_emitted`` — rows produced,
* ``intern_tables`` — dense-int codecs built by the ``wcoj`` execution,
* ``seeks`` / ``leapfrog_rounds`` / ``trie_builds`` — worst-case-optimal
  join work: trie-cursor seek/next bisections, leapfrog-chase iterations,
  and sorted tries constructed (see :mod:`repro.relational.wcoj`),
* ``intermediate_sizes`` — the cardinality of every join result, in order,
* per-operator invocation counts and wall-clock seconds.

Collection is scoped with the :func:`collect_stats` context manager, which
installs the stats object in a :class:`contextvars.ContextVar` — so nothing
leaks between queries, threads, or async tasks, and the algebra pays a
single ``ContextVar.get`` per operator call when tracing is off.  The
fields below are the only declaration of these counters: merging,
resetting, serialization, metric names and the ``repro stats`` columns are
derived from them by :class:`~repro.telemetry.registry.MetricSet`.

>>> from repro.relational.algebra import natural_join
>>> from repro.relational.relation import Relation
>>> r = Relation(("x", "y"), [(1, 2)]); s = Relation(("y", "z"), [(2, 3)])
>>> with collect_stats() as stats:
...     _ = natural_join(r, s)
>>> stats.tuples_emitted
1
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.telemetry.registry import MetricSet, derived

__all__ = ["EvalStats", "collect_stats", "current_stats"]


@dataclass
class EvalStats(MetricSet, kind="eval"):
    """Mutable accumulator of evaluation counters.

    Counters only ever grow while an evaluation runs (they are *monotone*):
    the stats of a composite evaluation equal the merge of the stats of its
    parts.  A fresh instance has every counter at zero.
    """

    tuples_scanned: int = 0
    hash_probes: int = 0
    index_builds: int = 0
    index_hits: int = 0
    probe_misses: int = 0
    tuples_emitted: int = 0
    intern_tables: int = 0
    seeks: int = 0
    leapfrog_rounds: int = 0
    trie_builds: int = 0

    @derived
    def joins(self) -> int:
        """Number of binary natural joins executed."""
        return self.operator_counts.get("natural_join", 0)

    @derived
    def max_intermediate(self) -> int:
        """Largest join-result cardinality seen (0 if no join ran)."""
        return max(self.intermediate_sizes, default=0)

    @derived
    def total_intermediate(self) -> int:
        """Sum of all join-result cardinalities (total materialized rows)."""
        return sum(self.intermediate_sizes)

    intermediate_sizes: list[int] = field(default_factory=list)
    operator_counts: dict[str, int] = field(default_factory=dict)
    operator_seconds: dict[str, float] = field(default_factory=dict)
    routing_decisions: list[dict] = field(default_factory=list)

    @derived
    def wall_seconds(self) -> float:
        """Total wall-clock time spent inside traced operators."""
        return sum(self.operator_seconds.values())

    # -- recording ---------------------------------------------------------

    def record(
        self,
        operator: str,
        *,
        seconds: float = 0.0,
        intermediate: int | None = None,
        **counts: int,
    ) -> None:
        """Record one operator invocation (called by the algebra): each
        keyword of ``counts`` names a counter field and adds to it."""
        for name, n in counts.items():
            setattr(self, name, getattr(self, name) + n)
        self.operator_counts[operator] = self.operator_counts.get(operator, 0) + 1
        self.operator_seconds[operator] = (
            self.operator_seconds.get(operator, 0.0) + seconds
        )
        if intermediate is not None:
            self.intermediate_sizes.append(intermediate)

    def record_routing(
        self, query: str, route: str, *, acyclic: bool, signal: str
    ) -> None:
        """Record one ``strategy="auto"`` routing decision.

        ``route`` is the execution path taken (``"yannakakis"`` or
        ``"wcoj"``), ``acyclic`` the width signal's verdict, and ``signal``
        names the structural test that drove the choice (the GYO-style
        join-tree construction — acyclicity is exactly "generalized
        hypertree width 1").
        """
        self.routing_decisions.append(
            {"query": query, "route": route, "acyclic": acyclic, "signal": signal}
        )

    def summary(self) -> str:
        """A short human-readable report: every number, then each
        operator's calls and seconds and each routing decision."""
        lines = [super().summary()]
        for op in sorted(self.operator_counts):
            lines.append(
                f"  {op:<17} ×{self.operator_counts[op]:<6}"
                f" {self.operator_seconds.get(op, 0.0):.6f}s"
            )
        for d in self.routing_decisions:
            lines.append(
                f"  route {d['query']:<12} -> {d['route']}"
                f" (acyclic={d['acyclic']}, signal={d['signal']})"
            )
        return "\n".join(lines)


#: The stats object of the innermost active :func:`collect_stats`, if any.
current_stats = EvalStats.current

#: Collect algebra statistics for the duration of a ``with`` block (a fresh
#: :class:`EvalStats` unless one is passed).  Nested blocks shadow outer
#: ones, so two queries traced separately never contaminate each other.
collect_stats = EvalStats.collect
