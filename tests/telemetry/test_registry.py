"""The metrics registry: one protocol over EvalStats / PropagationStats /
SearchStats, plus the log-scale timing histogram."""

import math
import pathlib
import re

import pytest

from repro.consistency.propagation import PropagationStats
from repro.csp.solvers.backtracking import SearchStats
from repro.errors import TelemetryError
from repro.relational.stats import EvalStats
from repro.telemetry import (
    METRICSET_KINDS,
    TimingHistogram,
    kind_of,
    merge_counters,
    metricset_class,
    payload,
)


def test_every_kind_resolves_both_ways():
    for kind in METRICSET_KINDS:
        cls = metricset_class(kind)
        assert kind_of(cls()) == kind


def test_unknown_kind_and_unregistered_instance_raise():
    with pytest.raises(TelemetryError):
        metricset_class("nope")
    with pytest.raises(TelemetryError):
        kind_of(object())


def test_payload_is_as_dict_plus_kind_tag():
    stats = EvalStats()
    stats.tuples_scanned = 7
    p = payload(stats)
    assert p["metricset"] == "eval"
    assert p["tuples_scanned"] == 7
    assert set(stats.as_dict()) <= set(p)


def test_counter_delta_scalars_dicts_and_list_suffixes():
    stats = EvalStats()
    stats.tuples_scanned = 3
    stats.intermediate_sizes.append(10)
    stats.operator_counts["natural_join"] = 1
    before = stats.snapshot()
    stats.tuples_scanned = 8
    stats.intermediate_sizes.append(20)
    stats.operator_counts["natural_join"] = 4
    stats.operator_counts["project"] = 2
    delta = stats.counter_delta(before)
    assert delta["tuples_scanned"] == 5
    assert delta["intermediate_sizes"] == [20]
    assert delta["operator_counts"] == {"natural_join": 3, "project": 2}
    # Untouched counters are omitted entirely.
    assert "hash_probes" not in delta
    assert stats.counter_delta(stats.snapshot()) == {}


def test_from_counters_ignores_derived_keys():
    stats = metricset_class("eval").from_counters(
        {"tuples_scanned": 4, "joins": 99, "hit_rate": 0.5}
    )
    assert stats.tuples_scanned == 4
    # "joins" / "hit_rate" are derived by as_dict(), not settable fields —
    # they recompute from the real counters.
    assert stats.as_dict()["tuples_scanned"] == 4


def test_merge_counters_folds_with_the_dataclass_merge():
    total = merge_counters(
        "propagation",
        [{"revisions": 2, "support_checks": 5}, {"revisions": 1, "wipeouts": 1}],
    )
    assert isinstance(total, PropagationStats)
    assert total.revisions == 3
    assert total.support_checks == 5
    assert total.wipeouts == 1


def test_search_stats_non_counter_fields_are_excluded():
    stats = SearchStats()
    stats.solution = {"x": 1}
    stats.nodes = 4
    snap = stats.snapshot()
    assert "solution" not in snap and "propagation" not in snap
    stats.nodes = 9
    stats.solution = {"x": 2}
    assert stats.counter_delta(snap) == {"nodes": 5}
    rebuilt = metricset_class("search").from_counters(
        {"nodes": 5, "solution": {"x": 1}}
    )
    assert rebuilt.nodes == 5 and rebuilt.solution is None


def test_metric_names_are_namespaced_by_kind():
    names = metricset_class("eval").metric_names()
    assert "eval.tuples_scanned" in names
    assert all(n.startswith("eval.") for n in names)
    assert "propagation.revisions" in metricset_class("propagation").metric_names()
    assert "search.nodes" in metricset_class("search").metric_names()


@pytest.mark.parametrize("kind", METRICSET_KINDS)
def test_metric_names_are_the_keys_flatten_emits(kind):
    cls = metricset_class(kind)
    assert cls.metric_names() == tuple(cls().flatten())


def test_docs_migration_table_lists_every_metric_name():
    doc = pathlib.Path(__file__).resolve().parents[2] / "docs" / "observability.md"
    text = doc.read_text(encoding="utf-8")
    section = text.split("### Migration note")[1].split("\n## ")[0]
    listed = re.findall(r"^\| `\w+` \([^)]*\) \| `([\w.]+)` \|$", section, re.M)
    assert tuple(listed) == tuple(
        name
        for kind in METRICSET_KINDS
        for name in metricset_class(kind).metric_names()
    )


def test_flatten_keeps_scalars_only():
    stats = EvalStats()
    stats.tuples_scanned = 5
    stats.intermediate_sizes.append(3)
    flat = stats.flatten()
    assert flat["eval.tuples_scanned"] == 5
    assert "eval.intermediate_sizes" not in flat
    assert all(isinstance(v, (int, float)) for v in flat.values())


class TestTimingHistogram:
    def test_exact_aggregates(self):
        h = TimingHistogram()
        for s in (0.001, 0.002, 0.1):
            h.observe(s)
        assert h.count == 3
        assert h.total_seconds == pytest.approx(0.103)
        assert h.min_seconds == 0.001
        assert h.max_seconds == 0.1
        assert h.mean_seconds == pytest.approx(0.103 / 3)

    def test_power_of_two_buckets(self):
        h = TimingHistogram()
        h.observe(0.75)  # [2^-1, 2^0)
        h.observe(0.3)  # [2^-2, 2^-1)
        h.observe(0.26)
        assert h.buckets == {-1: 1, -2: 2}

    def test_sub_microsecond_clamps_into_the_lowest_bucket(self):
        h = TimingHistogram()
        h.observe(0.0)
        h.observe(1e-12)
        assert h.buckets == {TimingHistogram.MIN_EXP: 2}

    def test_merge_is_counterwise(self):
        a, b = TimingHistogram(), TimingHistogram()
        a.observe(0.3)
        b.observe(0.3)
        b.observe(0.001)
        a.merge(b)
        assert a.count == 3
        assert a.buckets[-2] == 2
        assert a.min_seconds == 0.001

    def test_quantile_bounds(self):
        h = TimingHistogram()
        for _ in range(99):
            h.observe(0.001)
        h.observe(1.5)
        assert h.quantile(0.5) <= 0.002048
        assert h.quantile(1.0) == 1.5
        assert TimingHistogram().quantile(0.5) == 0.0

    def test_dict_round_trip(self):
        h = TimingHistogram()
        for s in (0.004, 0.03, 2.0):
            h.observe(s)
        back = TimingHistogram.from_dict(h.as_dict())
        assert back.as_dict() == h.as_dict()
        assert back.buckets == h.buckets

    def test_empty_round_trip(self):
        back = TimingHistogram.from_dict(TimingHistogram().as_dict())
        assert back.count == 0
        assert back.min_seconds == math.inf
