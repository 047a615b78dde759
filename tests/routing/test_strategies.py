"""Unit tests for the strategy records and Section 2.2's forwarding-set definitions."""

import pytest

from repro.broker.network import PubSubNetwork
from repro.filters.filter import Filter, MatchNone
from repro.routing.strategies import make_strategy
from repro.topology.builders import line_topology

from tests.oracles.forwarding import (
    DEFINITIONS,
    CoveringStrategy,
    FloodingStrategy,
    MergingStrategy,
    SimpleStrategy,
)


def F(**kwargs):
    return Filter(kwargs)


class TestFactory:
    def test_all_strategies_constructible(self):
        for name in sorted(DEFINITIONS):
            strategy = make_strategy(name)
            assert strategy.name == name

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            make_strategy("teleportation")

    def test_flooding_flag(self):
        assert make_strategy("flooding").floods_notifications
        assert not make_strategy("covering").floods_notifications

    def test_a_strategy_is_one_shared_frozen_record(self):
        covering = make_strategy("covering")
        assert covering is make_strategy("covering")
        assert (covering.delta_reduction, make_strategy("merging").delta_reduction) == (
            "covering",
            "merging",
        )
        with pytest.raises(AttributeError):
            covering.floods_notifications = True


@pytest.mark.parametrize("given", ["name", "record"])
def test_every_broker_of_a_network_reads_the_table_record(given):
    merging = make_strategy("merging")
    network = PubSubNetwork(line_topology(3), strategy=merging.name if given == "name" else merging)
    assert all(broker.strategy is merging for broker in network.brokers.values())


class TestForwardingSets:
    def test_flooding_forwards_nothing(self):
        assert FloodingStrategy().desired_forwarding_set([F(a=1), F(b=2)]) == []

    def test_simple_forwards_everything_once(self):
        filters = [F(a=1), F(b=2), F(a=1)]
        selected = SimpleStrategy().desired_forwarding_set(filters)
        assert len(selected) == 2
        assert F(a=1) in selected and F(b=2) in selected

    def test_identity_routing_is_simple_routing(self):
        filters = [F(a=1), F(a=1), F(a=1)]
        assert SimpleStrategy().desired_forwarding_set(filters) == [F(a=1)]
        with pytest.raises(ValueError, match="unknown routing strategy"):
            make_strategy("identity")

    def test_covering_drops_covered_filters(self):
        filters = [F(cost=("<", 3)), F(cost=("<", 10)), F(service="parking")]
        selected = CoveringStrategy().desired_forwarding_set(filters)
        assert F(cost=("<", 10)) in selected
        assert F(service="parking") in selected
        assert F(cost=("<", 3)) not in selected

    def test_covering_smaller_or_equal_than_simple(self):
        filters = [
            F(location=("in", ["a"])),
            F(location=("in", ["a", "b"])),
            F(location=("in", ["c"])),
            F(service="parking"),
        ]
        simple = SimpleStrategy().desired_forwarding_set(filters)
        covering = CoveringStrategy().desired_forwarding_set(filters)
        assert len(covering) <= len(simple)

    def test_merging_collapses_mergeable_filters(self):
        filters = [
            F(service="parking", location=("in", ["a"])),
            F(service="parking", location=("in", ["b"])),
            F(service="parking", location=("in", ["c"])),
        ]
        merged = MergingStrategy().desired_forwarding_set(filters)
        assert len(merged) == 1
        for loc in "abc":
            assert merged[0].matches({"service": "parking", "location": loc})

    def test_match_none_is_dropped_everywhere(self):
        for definition in DEFINITIONS.values():
            assert MatchNone() not in definition.desired_forwarding_set([MatchNone(), F(a=1)])

    def test_union_preserved_by_all_strategies(self):
        """Every non-flooding strategy's output accepts exactly the union."""
        filters = [
            F(service="parking", cost=("<", 3)),
            F(service="parking", cost=("<", 10)),
            F(service="fuel"),
            F(location=("in", ["a", "b"])),
        ]
        samples = [
            {"service": "parking", "cost": 1},
            {"service": "parking", "cost": 5},
            {"service": "fuel", "cost": 100},
            {"location": "a"},
            {"location": "z"},
            {},
        ]
        for name in ("simple", "covering", "merging"):
            selected = DEFINITIONS[name].desired_forwarding_set(filters)
            for sample in samples:
                expected = any(f.matches(sample) for f in filters)
                actual = any(f.matches(sample) for f in selected)
                assert actual == expected, (name, sample)
