"""Unit tests for the residual-support propagation core."""

import builtins
import sys

import pytest

from repro.consistency.propagation import (
    PROPAGATION_STRATEGIES,
    ColumnarEngine,
    InternedEngine,
    PropagationEngine,
    PropagationStats,
    Worklist,
    _ROOT,
    _BitsetConstraint,
    _ColumnarConstraint,
    _codes_of,
    check_propagation_strategy,
    collect_propagation,
    current_propagation,
    make_engine,
    publish,
)
from repro.csp.instance import Constraint, CSPInstance
from repro.errors import SolverError

NE = {(0, 1), (1, 0)}


def chain_instance():
    """x≠y, y≠z over {0,1} — arc consistent with full domains."""
    return CSPInstance(
        ["x", "y", "z"],
        [0, 1],
        [Constraint(("x", "y"), NE), Constraint(("y", "z"), NE)],
    )


class TestStrategyKnob:
    def test_known_strategies(self):
        assert PROPAGATION_STRATEGIES == ("residual", "naive", "interned", "columnar")
        for s in PROPAGATION_STRATEGIES:
            assert check_propagation_strategy(s) == s

    def test_unknown_strategy_raises(self):
        with pytest.raises(SolverError, match="unknown propagation strategy"):
            check_propagation_strategy("ac2001")


class TestWorklist:
    def test_deduplicates_on_push(self):
        wl = Worklist([1, 2, 1, 2, 3])
        assert len(wl) == 3

    def test_fifo_order(self):
        wl = Worklist([1, 2, 3])
        assert [wl.pop(), wl.pop(), wl.pop()] == [1, 2, 3]

    def test_push_reports_whether_enqueued(self):
        wl = Worklist()
        assert wl.push("a") is True
        assert wl.push("a") is False
        wl.pop()
        assert wl.push("a") is True  # re-entry after pop is allowed

    def test_contains_and_bool(self):
        wl = Worklist()
        assert not wl
        wl.push(7)
        assert wl and 7 in wl
        wl.pop()
        assert 7 not in wl


class TestPropagationStats:
    def test_merge_is_componentwise_sum(self):
        a = PropagationStats(revisions=1, support_checks=2, support_hits=1)
        b = PropagationStats(revisions=10, trail_restores=3, wipeouts=1)
        a.merge(b)
        assert a.revisions == 11
        assert a.support_checks == 2
        assert a.trail_restores == 3
        assert a.wipeouts == 1

    def test_reset_zeroes_everything(self):
        s = PropagationStats(revisions=5, support_checks=9, support_hits=4)
        s.reset()
        assert s.as_dict() == PropagationStats().as_dict()

    def test_hit_rate(self):
        assert PropagationStats().hit_rate == 0.0
        assert PropagationStats(support_checks=4, support_hits=1).hit_rate == 0.25

    def test_summary_mentions_all_counters(self):
        text = PropagationStats(support_checks=3, support_hits=3).summary()
        for word in ("revisions", "support checks", "hits", "restores", "wipeouts"):
            assert word in text


class TestCollectPropagation:
    def test_engines_publish_into_active_block(self):
        from repro.consistency.arc import ac3

        with collect_propagation() as stats:
            ac3(chain_instance())
        assert stats.revisions > 0
        assert stats.support_checks > 0

    def test_nested_blocks_shadow(self):
        from repro.consistency.arc import ac3

        with collect_propagation() as outer:
            with collect_propagation() as inner:
                ac3(chain_instance())
        assert inner.revisions > 0
        assert outer.revisions == 0

    def test_no_block_means_no_active_stats(self):
        assert current_propagation() is None

    def test_publish_merges_and_returns(self):
        s = PropagationStats(revisions=2)
        with collect_propagation() as active:
            assert publish(s) is s
        assert active.revisions == 2

    def test_publish_of_active_object_does_not_double_count(self):
        with collect_propagation() as active:
            active.revisions = 3
            publish(active)
        assert active.revisions == 3


class TestPropagationEngine:
    def test_full_propagation_reaches_ac_fixpoint(self):
        inst = CSPInstance(
            ["x", "y"],
            [0, 1, 2],
            [Constraint(("x", "y"), {(0, 1), (1, 2)}), Constraint(("y",), [(2,)])],
        )
        engine = PropagationEngine(inst)
        domains = engine.fresh_domains()
        stats = PropagationStats()
        assert engine.propagate(domains, None, stats)
        assert domains["x"] == {1}
        assert domains["y"] == {2}

    def test_wipeout_returns_false_and_counts(self):
        inst = CSPInstance(
            ["x", "y"], [0, 1], [Constraint(("x", "y"), {(0, 0)}),
                                 Constraint(("x",), [(1,)])]
        )
        engine = PropagationEngine(inst)
        domains = engine.fresh_domains()
        stats = PropagationStats()
        assert not engine.propagate(domains, None, stats)
        assert stats.wipeouts == 1

    def test_trail_records_deletions_and_restore_round_trips(self):
        engine = PropagationEngine(chain_instance())
        domains = engine.fresh_domains()
        stats = PropagationStats()
        trail = [("x", domains["x"] - {0})]
        domains["x"] = {0}
        assert engine.propagate(domains, ["x"], stats, trail=trail)
        assert domains["y"] == {1} and domains["z"] == {0}
        engine.restore(domains, trail, stats)
        assert not trail
        assert all(domains[v] == {0, 1} for v in ("x", "y", "z"))
        assert stats.trail_restores == 3  # x's 1 back, y's 0 back, z's 1 back

    def test_residual_supports_hit_on_repeat_propagation(self):
        engine = PropagationEngine(chain_instance())
        first = PropagationStats()
        engine.propagate(engine.fresh_domains(), None, first)
        second = PropagationStats()
        engine.propagate(engine.fresh_domains(), None, second)
        # Supports stored during the first pass answer the second pass:
        # every check is a stored-row re-verification, none was on pass one.
        assert first.support_hits == 0
        assert second.support_hits == second.support_checks > 0

    def test_skip_targets_are_never_revised(self):
        for strategy in ("residual", "interned", "columnar"):
            engine = make_engine(chain_instance(), strategy)
            domains = engine.fresh_domains()
            engine.pin(domains, "y", engine.domain_values(domains, "y")[0])
            stats = PropagationStats()
            assert engine.propagate(domains, ["y"], stats, skip={"y", "z"})
            # One revision, of x: not the pinned y when x shrank, and not z,
            # whose value 0 lost its support and would have gone.
            assert stats.revisions == 1, strategy
            assert engine.export_domains(domains) == {"x": {1}, "y": {0}, "z": {0, 1}}

    def test_root_pass_refutes_an_empty_nullary_relation(self):
        inst = CSPInstance(["x"], [0, 1], [Constraint((), [])])
        for strategy in ("residual", "interned", "columnar"):
            engine = make_engine(inst, strategy)
            stats = PropagationStats()
            assert not engine.propagate(engine.fresh_domains(), None, stats)
            assert stats.wipeouts == 1 and stats.revisions == 0


def test_codes_are_read_a_byte_at_a_time():
    """The bitset engine's domain codes: one table entry for a mask under
    256, several bytes (and more than 64 codes) above it."""
    for mask in (0, 0b1010, 255, 256, (1 << 70) | (1 << 64) | 0b101, (1 << 200) - 1):
        assert list(_codes_of(mask)) == [
            i for i in range(mask.bit_length()) if mask >> i & 1
        ]


# -- numpy-absent fallback ---------------------------------------------------


@pytest.fixture
def no_numpy(monkeypatch):
    """Mask numpy out of the import machinery; restore it on exit."""
    real_import = builtins.__import__

    def blocked(name, *args, **kwargs):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError("numpy masked for the fallback wall")
        return real_import(name, *args, **kwargs)

    monkeypatch.setattr(builtins, "__import__", blocked)
    for mod in [m for m in sys.modules if m == "numpy" or m.startswith("numpy.")]:
        monkeypatch.delitem(sys.modules, mod)
    yield
    monkeypatch.undo()


@pytest.mark.usefixtures("no_numpy")
class TestNumpyAbsentFallback:
    def test_columnar_engine_degrades_to_interned(self):
        """Without numpy the ColumnarEngine keeps the inherited bitset
        build — it *is* the interned engine, same fixpoint by
        construction: the same bitset constraints and the same arcs,
        binary ones carrying their support masks."""
        inst = CSPInstance(
            ["x", "y", "z"],
            [0, 1, 2],
            [
                Constraint(("x", "y"), {(0, 1), (1, 2), (2, 0)}),
                Constraint(("y", "z"), {(1, 2), (2, 0)}),
                Constraint(("z",), [(2,)]),
            ],
        )
        engine = make_engine(inst, "columnar")
        assert isinstance(engine, ColumnarEngine)
        assert all(isinstance(c, _BitsetConstraint) for c in engine.constraints)
        interned = InternedEngine(inst)

        def arc_shapes(e):
            # (target, partner, masks) per arc and block; the unary arc
            # holds its own constraint object, compared by its mask.
            return {
                source: [
                    (t, p, m, c.allowed_mask if c is not None else None)
                    for t, p, m, c in block
                ]
                for source, block in e._arcs.items()
            }

        assert arc_shapes(engine) == arc_shapes(interned)
        assert sum(m is not None for _, _, m, _ in engine._arcs[_ROOT]) == 4
        domains = engine.fresh_domains()
        assert engine.propagate(domains, None, PropagationStats())
        expected = interned.fresh_domains()
        interned.propagate(expected, None, PropagationStats())
        assert domains == expected


def test_columnar_engine_uses_vectorized_constraints_with_numpy():
    """The counterpart pin: with numpy present the constraints really are
    the vectorized kind (so the masking test above is exercising a genuine
    degradation, not the only path)."""
    pytest.importorskip("numpy")
    inst = CSPInstance(
        ["x", "y"], [0, 1], [Constraint(("x", "y"), {(0, 1), (1, 0)})]
    )
    engine = make_engine(inst, "columnar")
    assert all(isinstance(c, _ColumnarConstraint) for c in engine.constraints)
