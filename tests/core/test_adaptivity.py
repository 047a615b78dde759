"""Unit tests for the adaptive uncertainty-level computation (Section 5.3)."""

import pytest

from repro.core.adaptivity import (
    AdaptivityError,
    UncertaintyPlan,
    adaptive_levels,
    flooding_levels,
    static_levels,
    trivial_levels,
)
from repro.core.logical import location_sets_chain
from repro.core.ploc import MovementGraph


class TestLevelFunctions:
    def test_static_levels(self):
        assert static_levels(3) == [0, 1, 2, 3]
        assert static_levels(0) == [0]

    def test_trivial_levels(self):
        assert trivial_levels(3) == [0, 1, 1, 1]

    def test_flooding_levels(self):
        assert flooding_levels(3, saturation=2) == [0, 2, 2, 2]

    def test_negative_hops_rejected(self):
        with pytest.raises(AdaptivityError):
            static_levels(-1)
        with pytest.raises(AdaptivityError):
            trivial_levels(-1)
        with pytest.raises(AdaptivityError):
            flooding_levels(-1, 2)

    def test_paper_example_figure8(self):
        """Δ = 100 ms, δ = 120, 50, 50, 20 ms gives levels 0, 1, 1, 2, 2."""
        assert adaptive_levels(100.0, [120.0, 50.0, 50.0, 20.0]) == [0, 1, 1, 2, 2]

    def test_slow_client_degenerates_to_trivial(self):
        """Sum of all δ below Δ: one step of look-ahead everywhere."""
        assert adaptive_levels(1000.0, [50.0, 50.0, 50.0]) == [0, 1, 1, 1]

    def test_fast_client_grows_levels_quickly(self):
        """Δ much smaller than the delays: levels grow per hop (towards flooding)."""
        levels = adaptive_levels(1.0, [10.0, 10.0, 10.0])
        assert levels[0] == 0
        assert levels[1] >= 9
        assert levels == sorted(levels)

    def test_exact_multiple_is_not_a_crossing(self):
        """A cumulative delay exactly equal to m·Δ has not exceeded it."""
        assert adaptive_levels(100.0, [100.0, 100.0]) == [0, 1, 1]

    def test_invalid_timing_rejected(self):
        with pytest.raises(AdaptivityError):
            adaptive_levels(0.0, [1.0])
        with pytest.raises(AdaptivityError):
            adaptive_levels(1.0, [-1.0])


class TestUncertaintyPlan:
    def test_constructors(self):
        graph = MovementGraph.paper_example()
        assert UncertaintyPlan.static(3).levels == [0, 1, 2, 3]
        assert UncertaintyPlan.trivial(3).levels == [0, 1, 1, 1]
        assert UncertaintyPlan.flooding(3, graph).levels == [0, 2, 2, 2]
        assert UncertaintyPlan.adaptive(100.0, [120, 50, 50, 20]).levels == [0, 1, 1, 2, 2]

    def test_level_for_hop_saturates(self):
        plan = UncertaintyPlan.static(2)
        assert plan.level_for_hop(0) == 0
        assert plan.level_for_hop(2) == 2
        assert plan.level_for_hop(10) == 2  # beyond the explicit list

    def test_negative_hop_rejected(self):
        with pytest.raises(AdaptivityError):
            UncertaintyPlan.static(2).level_for_hop(-1)

    def test_validation_rules(self):
        with pytest.raises(AdaptivityError):
            UncertaintyPlan(levels=[])
        with pytest.raises(AdaptivityError):
            UncertaintyPlan(levels=[1, 2])  # hop 0 must be exact
        with pytest.raises(AdaptivityError):
            UncertaintyPlan(levels=[0, 2, 1])  # must be non-decreasing
        with pytest.raises(AdaptivityError):
            UncertaintyPlan(levels=[0, -1])

    def test_location_sets_follow_levels(self):
        graph = MovementGraph.paper_example()
        plan = UncertaintyPlan.adaptive(100.0, [120, 50, 50, 20])
        sets = location_sets_chain(graph, plan, "a", hops=3)
        assert sets[0] == frozenset({"a"})
        assert sets[1] == frozenset({"a", "b", "c"})
        assert sets[2] == frozenset({"a", "b", "c"})
        assert sets[3] == frozenset({"a", "b", "c", "d"})

    def test_location_sets_are_nested(self):
        """The filter chain's set-inclusion property holds for every plan."""
        graph = MovementGraph.grid(3, 3)
        for plan in (
            UncertaintyPlan.static(5),
            UncertaintyPlan.trivial(5),
            UncertaintyPlan.flooding(5, graph),
            UncertaintyPlan.adaptive(1.0, [0.4, 0.4, 0.4, 0.4, 0.4]),
        ):
            for location in graph.locations():
                sets = location_sets_chain(graph, plan, location, hops=5)
                for smaller, larger in zip(sets, sets[1:]):
                    assert smaller <= larger

    def test_describe(self):
        assert "adaptive" in UncertaintyPlan.adaptive(1.0, [0.1]).describe()
