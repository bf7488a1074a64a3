"""Outside-in layer tracing for the traced run.

The :class:`Tracer` wraps public functions of each layer where their
callers look them up, records one span per call (name, start, end, parent,
op id) in memory, and turns the spans into per-layer self times: a span's
duration minus its children and the garbage-collector pauses inside it.
Work counts come from the program's own counters (``collect_stats``,
``collect_propagation``, ``SearchStats``, ``CacheStats``, ``UpdateReport``),
never from the program's span names.

A span marked *opaque* keeps everything below it: ``minimize`` evaluates
candidate cores over canonical databases, and that work is the
containment layer's, not the evaluation layer's.
"""

from __future__ import annotations

import gc
import sys
import time
from collections import defaultdict
from typing import Any, Callable

__all__ = ["Tracer", "LAYER_TARGETS"]

#: The end-to-end metric each layer should move, on which workload.
LAYER_TARGETS = {
    "cq.parser": "query_p50_ms on serve-read",
    "cq.containment": "query_p50_ms on serve-read",
    "cq.canonical": "query_p50_ms on serve-read",
    "service.core": "ops_per_s on serve-read",
    "service.cache": "query_p50_ms and ops_per_s on serve-read; serve-write: no change",
    "cq.evaluate": "query_p90_ms on serve-read; serve-write: query_p50_ms",
    "relational.algebra": "query_p90_ms on serve-read; serve-write: ops_per_s",
    "datalog.incremental": "setup_s and ops_per_s on serve-read; serve-write: ops_per_s",
    "csp.solvers.portfolio": "query_p50_ms on csp-solve",
    "csp.instance": "query_p50_ms on csp-solve",
    "consistency.propagation": "query_p50_ms and query_p90_ms on csp-solve",
    "csp.solvers.backtracking": "query_p90_ms on csp-solve",
    "python.gc": "every query_p90_ms and peak_rss_mb",
}


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        from repro.consistency.propagation import PropagationStats
        from repro.relational.stats import EvalStats

        self.names: list[str] = []
        self.spans: list[list[int]] = []  # [name id, start ns, end ns, parent, op]
        self.pauses: list[tuple[int, int, int, int]] = []  # gc: start, end, parent, op
        self.stack: list[int] = []
        self.op = -1
        self.opaque = 0
        self.counts: dict[str, float] = defaultdict(float)
        self.query_stats = EvalStats()
        self.update_stats = EvalStats()
        self.propagation = PropagationStats()
        self._patches: list[tuple[Any, str, Any]] = []
        self._gc_started = 0

    # -- recording ------------------------------------------------------------

    def wrap(
        self,
        fn: Callable,
        name: str,
        *,
        opaque: bool = False,
        context: Callable[[], Any] | None = None,
        after: Callable[[tuple, Any], None] | None = None,
    ) -> Callable:
        """``fn`` wrapped to record a span called ``name``.

        ``context`` is entered around the call (a stats collector);
        ``after(args, result)`` records work counts from the result.
        """
        tracer, spans, stack = self, self.spans, self.stack
        clock = time.perf_counter_ns
        name_id = len(self.names)
        self.names.append(name)

        def traced(*args: Any, **kwargs: Any) -> Any:
            if tracer.opaque:
                return fn(*args, **kwargs)
            record = [name_id, 0, 0, stack[-1] if stack else -1, tracer.op]
            spans.append(record)
            stack.append(len(spans) - 1)
            tracer.opaque += opaque
            record[1] = clock()
            try:
                if context is None:
                    result = fn(*args, **kwargs)
                else:
                    with context():
                        result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                tracer.opaque -= opaque
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def patch(self, owner: Any, attribute: str, name: str, **options: Any) -> None:
        """Replace ``owner.attribute`` by its traced wrapper until
        :meth:`uninstall`."""
        original = vars(owner)[attribute]
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(original, name, **options))

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter_ns()
        else:
            parent = self.stack[-1] if self.stack else -1
            self.pauses.append((self._gc_started, time.perf_counter_ns(), parent, self.op))

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's public functions where their callers look
        them up, and start timing collector pauses."""
        from repro.consistency.propagation import PropagationEngine
        from repro.csp.instance import CSPInstance
        from repro.csp.solvers import backtracking, portfolio
        from repro.datalog import engine, incremental
        from repro.relational.stats import collect_stats
        from repro.service import cache, core

        # `repro.cq.evaluate` as an attribute is the function; the module
        # whose globals `evaluate` reads is only reachable here.
        evaluation = sys.modules["repro.cq.evaluate"]
        counts = self.counts

        def count(key: str, amount: Callable[[tuple, Any], float]):
            def after(args: tuple, result: Any) -> None:
                counts[key] += amount(args, result)
            return after

        def after_apply(args: tuple, report: Any) -> None:
            counts["datalog.incremental.apply.rounds"] += report.rounds
            counts["datalog.incremental.apply.rows_changed"] += (
                report.rows_added + report.rows_removed
            )

        def after_search(args: tuple, stats: Any) -> None:
            counts["csp.solvers.backtracking.nodes"] += stats.nodes
            counts["csp.solvers.backtracking.backtracks"] += stats.backtracks

        service = core.QueryService
        results = cache.ResultCache
        maintained = incremental.IncrementalEvaluation
        self.patch(service, "ask", "service.core.ask")
        self.patch(service, "update", "service.core.update")
        self.patch(core, "parse_query", "cq.parser.parse_query")
        self.patch(
            core, "minimize", "cq.containment.minimize", opaque=True,
            after=count(
                "cq.containment.minimize.atoms_dropped",
                lambda args, core_query: len(args[0].body) - len(core_query.body),
            ),
        )
        self.patch(cache, "are_equivalent", "cq.containment.are_equivalent", opaque=True)
        self.patch(
            cache, "canonical_key", "cq.canonical.canonical_key",
            after=count("cq.canonical.canonical_key.keyless", lambda a, key: key is None),
        )
        self.patch(results, "lookup", "service.cache.lookup")
        self.patch(results, "store", "service.cache.store")
        self.patch(results, "invalidate", "service.cache.invalidate")
        self.patch(
            core, "evaluate", "cq.evaluate.evaluate",
            context=lambda: collect_stats(self.query_stats),
            after=count("cq.evaluate.answer_rows", lambda a, relation: len(relation)),
        )
        self.patch(evaluation, "atom_relation", "cq.evaluate.atom_relation")
        for module in (evaluation, engine, incremental):
            self.patch(module, "join_all", "relational.algebra.join_all")
        self.patch(evaluation, "project", "relational.algebra.project")
        self.patch(evaluation, "semijoin", "relational.algebra.semijoin")
        self.patch(maintained, "__init__", "datalog.incremental.init")
        self.patch(
            maintained, "apply", "datalog.incremental.apply",
            context=lambda: collect_stats(self.update_stats), after=after_apply,
        )
        self.patch(maintained, "as_structure", "datalog.incremental.as_structure")
        self.patch(
            portfolio, "explain", "csp.solvers.portfolio.explain",
            after=count(
                "csp.solvers.portfolio.mac_routes",
                lambda a, route: route == portfolio.Route.SEARCH,
            ),
        )
        self.patch(CSPInstance, "normalize", "csp.instance.normalize")
        self.patch(
            backtracking, "solve_with_stats", "csp.solvers.backtracking.search",
            after=after_search,
        )
        self.patch(backtracking, "make_engine", "consistency.propagation.make_engine")
        self.patch(PropagationEngine, "propagate", "consistency.propagation.propagate")
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        """Undo every patch and stop timing collector pauses."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def solve_root(self) -> Callable:
        """``repro.solve`` as the traced root op of csp-solve (it is bound
        at import, so the benchmark calls this wrapper directly)."""
        import repro
        from repro.consistency.propagation import collect_propagation

        return self.wrap(
            repro.solve,
            "csp.solvers.portfolio.solve",
            context=lambda: collect_propagation(self.propagation),
        )

    # -- reduction ------------------------------------------------------------

    def span_self_ns(self) -> list[int]:
        """Each span's duration minus its child spans and the collector
        pauses inside it, aligned with :attr:`spans`."""
        children = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        for start, end, parent, _ in self.pauses:
            if parent >= 0:
                children[parent] += end - start
        return [end - start - children[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per span name over all ops: ``calls`` and ``self_ms``; collector
        pauses inside ops appear as ``python.gc.collect``."""
        out: dict[str, dict[str, float]] = {}
        for (name_id, _, _, _, op), self_ns in zip(self.spans, self.span_self_ns()):
            if op >= 0:
                entry = out.setdefault(self.names[name_id], {"calls": 0, "self_ms": 0.0})
                entry["calls"] += 1
                entry["self_ms"] += self_ns / 1e6
        pauses = [(end - start) / 1e6 for start, end, _, op in self.pauses if op >= 0]
        out["python.gc.collect"] = {"calls": len(pauses), "self_ms": sum(pauses)}
        return out

    def init_ms(self) -> list[float]:
        """Durations of ``IncrementalEvaluation`` builds outside ops."""
        name_id = self.names.index("datalog.incremental.init")
        return [
            (end - start) / 1e6
            for nid, start, end, _, op in self.spans
            if nid == name_id and op < 0
        ]

    def dump(self) -> dict:
        """The raw spans, for writing out at the end of the run."""
        return {
            "names": self.names,
            "spans": self.spans,
            "gc_pauses": self.pauses,
        }
