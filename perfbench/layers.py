"""Per-layer metrics and the traced-run report.

Every metric is named ``<layer>.<metric>`` and given per op of the traced
pass, except ratios and ``max_intermediate``.  Layers never touched by a
workload read 0 there: the prediction for that workload is no change.
:data:`~perfbench.tracing.LAYER_TARGETS` names the end-to-end metric each
layer should move.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any

from perfbench.tracing import LAYER_TARGETS, Tracer

__all__ = ["PER_LAYER", "layer_report"]

#: Spans whose self time per op is a metric (``<span>.self_ms``).
SELF_TIMED = (
    "cq.parser.parse_query",
    "cq.containment.minimize",
    "cq.containment.are_equivalent",
    "cq.canonical.canonical_key",
    "service.core.ask",
    "service.core.update",
    "service.cache.lookup",
    "service.cache.store",
    "service.cache.invalidate",
    "cq.evaluate.evaluate",
    "cq.evaluate.atom_relation",
    "relational.algebra.join_all",
    "relational.algebra.project",
    "relational.algebra.semijoin",
    "datalog.incremental.apply",
    "datalog.incremental.as_structure",
    "csp.solvers.portfolio.solve",
    "csp.solvers.portfolio.explain",
    "csp.instance.normalize",
    "consistency.propagation.make_engine",
    "consistency.propagation.propagate",
    "csp.solvers.backtracking.search",
)

#: Spans whose call count per op is a metric (``<span>.calls``).
COUNTED = (
    "cq.canonical.canonical_key",
    "cq.evaluate.atom_relation",
    "datalog.incremental.as_structure",
    "csp.instance.normalize",
)

#: Every per-layer metric as (name, unit, better), in report order.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    *((f"{span}.self_ms", "ms", "lower") for span in SELF_TIMED),
    *((f"{span}.calls", "count", "lower") for span in COUNTED),
    ("cq.containment.minimize.atoms_dropped", "count", "higher"),
    ("cq.canonical.canonical_key.keyless", "count", "lower"),
    ("service.cache.hit_rate", "ratio", "higher"),
    ("service.cache.equivalence_hits", "count", "higher"),
    ("service.cache.projection_hits", "count", "higher"),
    ("service.cache.evictions", "count", "lower"),
    ("service.cache.containment_probes", "count", "lower"),
    ("cq.evaluate.answer_rows", "count", "higher"),
    ("relational.algebra.tuples_scanned", "count", "lower"),
    ("relational.algebra.tuples_emitted", "count", "lower"),
    ("relational.algebra.max_intermediate", "count", "lower"),
    ("relational.algebra.index_builds", "count", "lower"),
    ("relational.algebra.index_hits", "count", "lower"),
    ("relational.algebra.probe_misses", "count", "lower"),
    ("relational.algebra.scanned_per_answer_row", "ratio", "lower"),
    ("datalog.incremental.apply.rounds", "count", "lower"),
    ("datalog.incremental.apply.rows_changed", "count", "lower"),
    ("datalog.incremental.init_ms", "ms", "lower"),
    ("csp.solvers.portfolio.mac_route_share", "ratio", "higher"),
    ("consistency.propagation.revisions", "count", "lower"),
    ("consistency.propagation.support_checks", "count", "lower"),
    ("consistency.propagation.support_hit_rate", "ratio", "higher"),
    ("consistency.propagation.wipeouts", "count", "lower"),
    ("csp.solvers.backtracking.nodes", "count", "lower"),
    ("csp.solvers.backtracking.backtracks", "count", "lower"),
    ("python.gc.collections", "count", "lower"),
    ("python.gc.pause_ms", "ms", "lower"),
    ("other.self_ms", "ms", "lower"),
    ("tracing.coverage", "ratio", "higher"),
    ("tracing.overhead_pct", "%", "lower"),
)

#: Work counters summed per op from the tracer's own counts.
_TRACER_COUNTS = (
    "cq.containment.minimize.atoms_dropped",
    "cq.canonical.canonical_key.keyless",
    "cq.evaluate.answer_rows",
    "datalog.incremental.apply.rounds",
    "datalog.incremental.apply.rows_changed",
    "csp.solvers.backtracking.nodes",
    "csp.solvers.backtracking.backtracks",
)


def _layer(span: str) -> str:
    return span.rsplit(".", 1)[0]


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _values(tracer: Tracer, traced: Any, plain: Any, cache_stats: Any) -> dict[str, float]:
    ops = traced.attempted
    times = tracer.self_times()
    wall_ms = sum(traced.latencies()) * 1e3
    covered_ms = sum(entry["self_ms"] for entry in times.values())
    values: dict[str, float] = {}
    for span in SELF_TIMED:
        values[f"{span}.self_ms"] = times.get(span, {}).get("self_ms", 0.0) / ops
    for span in COUNTED:
        values[f"{span}.calls"] = times.get(span, {}).get("calls", 0) / ops
    for key in _TRACER_COUNTS:
        values[key] = tracer.counts.get(key, 0.0) / ops

    if cache_stats is not None:
        values["service.cache.hit_rate"] = cache_stats.hit_rate
        for key in ("equivalence_hits", "projection_hits", "evictions", "containment_probes"):
            values[f"service.cache.{key}"] = getattr(cache_stats, key) / ops
    else:
        for key in ("hit_rate", "equivalence_hits", "projection_hits", "evictions", "containment_probes"):
            values[f"service.cache.{key}"] = 0.0

    query, update = tracer.query_stats, tracer.update_stats
    for key in ("tuples_scanned", "tuples_emitted", "index_builds", "index_hits", "probe_misses"):
        values[f"relational.algebra.{key}"] = (
            getattr(query, key) + getattr(update, key)
        ) / ops
    values["relational.algebra.max_intermediate"] = float(
        max(query.max_intermediate, update.max_intermediate)
    )
    values["relational.algebra.scanned_per_answer_row"] = _ratio(
        query.tuples_scanned, tracer.counts.get("cq.evaluate.answer_rows", 0.0)
    )

    init = tracer.init_ms()
    values["datalog.incremental.init_ms"] = statistics.median(init) if init else 0.0
    explains = times.get("csp.solvers.portfolio.explain", {}).get("calls", 0)
    values["csp.solvers.portfolio.mac_route_share"] = _ratio(
        tracer.counts.get("csp.solvers.portfolio.mac_routes", 0.0), explains
    )

    propagation = tracer.propagation
    for key in ("revisions", "support_checks", "wipeouts"):
        values[f"consistency.propagation.{key}"] = getattr(propagation, key) / ops
    values["consistency.propagation.support_hit_rate"] = propagation.hit_rate

    collect = times["python.gc.collect"]
    values["python.gc.collections"] = collect["calls"] / ops
    values["python.gc.pause_ms"] = collect["self_ms"] / ops
    values["other.self_ms"] = (wall_ms - covered_ms) / ops
    values["tracing.coverage"] = _ratio(covered_ms, wall_ms)
    values["tracing.overhead_pct"] = (plain.ops_per_s / traced.ops_per_s - 1) * 100
    return values


def _groups(tracer: Tracer, traced: Any) -> dict[str, dict[str, Any]]:
    """Ops, wall time and self time per layer (ms) of each group of ops:
    the op kind, with serve asks split into cache hits and misses (a miss
    runs ``cq.evaluate``)."""
    layers: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    seen: dict[int, set[str]] = defaultdict(set)
    for (name_id, _, _, _, op), self_ns in zip(tracer.spans, tracer.span_self_ns()):
        if op >= 0:
            name = tracer.names[name_id]
            layers[op][_layer(name)] += self_ns / 1e6
            seen[op].add(name)
    for start, end, _, op in tracer.pauses:
        if op >= 0:
            layers[op]["python.gc"] += (end - start) / 1e6
    groups: dict[str, dict[str, Any]] = {}
    for op, (kind, elapsed) in enumerate(traced.ops):
        if elapsed is None:
            continue
        group = kind
        if "service.cache.lookup" in seen[op]:
            group = "ask miss" if "cq.evaluate.evaluate" in seen[op] else "ask hit"
        total = groups.setdefault(
            group, {"ops": 0, "wall_ms": 0.0, "layers": defaultdict(float), "latencies": []}
        )
        total["ops"] += 1
        total["wall_ms"] += elapsed * 1e3
        total["latencies"].append(elapsed)
        for layer, ms in layers[op].items():
            total["layers"][layer] += ms
    return groups


def _median_ask_is_hit(groups: dict[str, dict[str, Any]]) -> bool | None:
    """Whether the ask at the median traced latency was a cache hit."""
    hits = groups.get("ask hit", {}).get("latencies", [])
    misses = groups.get("ask miss", {}).get("latencies", [])
    if not hits and not misses:
        return None
    asks = sorted([(s, True) for s in hits] + [(s, False) for s in misses])
    return asks[len(asks) // 2][1]


def layer_report(tracer: Tracer, traced: Any, plain: Any, cache_stats: Any) -> dict:
    """Per-layer metrics, per-group layer splits and the report lines."""
    values = _values(tracer, traced, plain, cache_stats)
    metrics = {name: (values[name], unit) for name, unit, _ in PER_LAYER}
    groups = _groups(tracer, traced)
    top = {
        group: max(split["layers"], key=split["layers"].get, default=None)
        for group, split in groups.items()
    }
    median_hit = _median_ask_is_hit(groups)

    lines = [f"traced ops {traced.attempted} (untraced pass {plain.attempted})"]
    times = tracer.self_times()
    by_layer: dict[str, float] = {}
    for span, entry in times.items():
        by_layer[_layer(span)] = by_layer.get(_layer(span), 0.0) + entry["self_ms"]
    wall = sum(traced.latencies()) * 1e3
    by_layer["other"] = wall - sum(by_layer.values())
    lines.append(f"{'layer':26s} {'self ms/op':>11s} {'share':>7s}  moves")
    for layer, ms in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        lines.append(
            f"{layer:26s} {ms / traced.attempted:11.4f} {_ratio(ms, wall):7.1%}"
            f"  {LAYER_TARGETS.get(layer, '')}"
        )
    for group, split in sorted(groups.items()):
        shares = sorted(split["layers"].items(), key=lambda kv: -kv[1])
        text = ", ".join(f"{k} {_ratio(v, split['wall_ms']):.0%}" for k, v in shares[:4])
        lines.append(f"split {group} (n={split['ops']}): {text}")
    if median_hit is not None:
        lines.append(f"check median ask is a cache hit: {median_hit}")
    for group, layer in sorted(top.items()):
        lines.append(f"check heaviest layer in {group}: {layer}")
    lines.append(
        f"tracing coverage {values['tracing.coverage']:.1%}, overhead "
        f"{values['tracing.overhead_pct']:+.1f}% (untraced {plain.ops_per_s:.2f} "
        f"ops/s, traced {traced.ops_per_s:.2f} ops/s)"
    )
    for name, unit, _ in PER_LAYER:
        lines.append(f"{name} {values[name]:.6g} {unit}")
    return {
        "metrics": metrics,
        "layers": {layer: ms / traced.attempted for layer, ms in by_layer.items()},
        "groups": {
            group: {"ops": split["ops"], "wall_ms": split["wall_ms"], "layers": dict(split["layers"])}
            for group, split in groups.items()
        },
        "checks": {"median_ask_is_hit": median_hit, "heaviest_layer": top},
        "lines": lines,
    }
