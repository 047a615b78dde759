"""Unit tests for itineraries and movement models."""

import pytest

from repro.core.ploc import MovementGraph
from repro.mobility.itinerary import LogicalItinerary, LogicalStep, RoamingItinerary, RoamingStep
from repro.mobility.models import cyclic_walk, random_walk, shuttle_roaming
from repro.sim.rng import DeterministicRandom


class TestLogicalItinerary:
    def test_steps_sorted_by_time(self):
        itinerary = LogicalItinerary(
            [LogicalStep(5.0, "b"), LogicalStep(0.0, "a"), LogicalStep(2.0, "c")]
        )
        assert [step.location for step in itinerary.steps] == ["a", "c", "b"]
        assert itinerary.initial_location == "a"
        assert itinerary.end_time == 5.0
        assert len(itinerary) == 3

    def test_from_pairs_and_uniform(self):
        itinerary = LogicalItinerary.from_pairs([(0, "a"), (1, "b")])
        assert itinerary.steps[1].location == "b"
        uniform = LogicalItinerary.uniform(["x", "y", "z"], dwell_time=2.0)
        assert uniform.timeline_pairs() == [(0.0, "x"), (2.0, "y"), (4.0, "z")]

    def test_location_at(self):
        itinerary = LogicalItinerary.from_pairs([(0, "a"), (10, "b")])
        assert itinerary.location_at(5) == "a"
        assert itinerary.location_at(10) == "b"
        assert itinerary.location_at(50) == "b"
        assert itinerary.location_at(-1) == "a"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            LogicalItinerary([])
        with pytest.raises(ValueError):
            LogicalItinerary.uniform(["a"], dwell_time=0)


class TestRoamingItinerary:
    def test_from_visits(self):
        itinerary = RoamingItinerary.from_visits([(0, 5, "B1"), (8, float("inf"), "B2")])
        assert itinerary.brokers_visited() == ["B1", "B2"]
        windows = itinerary.connected_windows()
        assert windows == [(0, 5, "B1"), (8, None, "B2")]

    def test_invalid_visit_rejected(self):
        with pytest.raises(ValueError):
            RoamingItinerary.from_visits([(5, 5, "B1")])

    def test_step_validation(self):
        with pytest.raises(ValueError):
            RoamingStep(time=0, action="teleport")
        with pytest.raises(ValueError):
            RoamingStep(time=0, action=RoamingStep.ATTACH)
        with pytest.raises(ValueError):
            RoamingItinerary([])


class TestModels:
    def test_random_walk_respects_movement_graph(self):
        graph = MovementGraph.paper_example()
        walk = random_walk(graph, "a", steps=20, dwell_time=1.0, rng=DeterministicRandom(5))
        assert len(walk) == 21
        pairs = walk.timeline_pairs()
        for (t0, loc0), (t1, loc1) in zip(pairs, pairs[1:]):
            assert t1 - t0 == pytest.approx(1.0)
            assert loc1 == loc0 or loc1 in graph.neighbours(loc0)

    def test_random_walk_is_deterministic_per_seed(self):
        graph = MovementGraph.grid(3, 3)
        left = random_walk(graph, "r0c0", 15, 1.0, DeterministicRandom(9))
        right = random_walk(graph, "r0c0", 15, 1.0, DeterministicRandom(9))
        assert left.timeline_pairs() == right.timeline_pairs()

    def test_random_walk_validation(self):
        graph = MovementGraph.paper_example()
        with pytest.raises(ValueError):
            random_walk(graph, "nowhere", 5, 1.0, DeterministicRandom(1))
        with pytest.raises(ValueError):
            random_walk(graph, "a", -1, 1.0, DeterministicRandom(1))
        with pytest.raises(ValueError):
            random_walk(graph, "a", 5, 0.0, DeterministicRandom(1))

    def test_cyclic_walk(self):
        walk = cyclic_walk(["a", "b"], dwell_time=2.0, cycles=2)
        assert [loc for _, loc in walk.timeline_pairs()] == ["a", "b", "a", "b"]
        assert walk.end_time == 6.0

    def test_shuttle_roaming(self):
        itinerary = shuttle_roaming(["B1", "B2"], connected_time=5.0, disconnected_time=2.0)
        windows = itinerary.connected_windows()
        assert windows[0] == (0.0, 5.0, "B1")
        assert windows[1][0] == pytest.approx(7.0)
        assert windows[1][1] is None  # stays attached at the last broker

    def test_shuttle_roaming_repetitions(self):
        itinerary = shuttle_roaming(["B1", "B2"], 5.0, 2.0, repetitions=2)
        assert itinerary.brokers_visited() == ["B1", "B2", "B1", "B2"]
