"""Tests for the itinerary driver (scheduling movement on the simulator)."""

from repro.broker.network import PubSubNetwork
from repro.core.adaptivity import UncertaintyPlan
from repro.core.location_filter import MYLOC
from repro.core.ploc import MovementGraph
from repro.filters.filter import Filter
from repro.metrics.qos import check_completeness, check_no_duplicates
from repro.mobility.driver import ItineraryDriver
from repro.mobility.itinerary import LogicalItinerary, RoamingItinerary
from repro.topology.builders import line_topology


class TestLogicalDriving:
    def test_set_location_calls_happen_at_scheduled_times(self):
        graph = MovementGraph.paper_example()
        network = PubSubNetwork(line_topology(3), strategy="covering", latency=0.01)
        producer = network.add_client("P", "B3")
        producer.advertise({"service": "demo"})
        consumer = network.add_client("C", "B1")
        consumer.subscribe_location_dependent(
            {"service": "demo", "location": MYLOC},
            movement_graph=graph,
            plan=UncertaintyPlan.static(2),
            initial_location="a",
        )
        driver = ItineraryDriver(network, consumer)
        driver.schedule_logical(LogicalItinerary.from_pairs([(0.0, "a"), (5.0, "b"), (10.0, "d")]))

        network.run_until(6.0)
        assert consumer.current_location == "b"
        network.run_until(11.0)
        assert consumer.current_location == "d"
        assert [loc for _, loc in driver.realised_locations] == ["a", "b", "d"]

    def test_repeated_location_is_not_resent(self):
        graph = MovementGraph.paper_example()
        network = PubSubNetwork(line_topology(2), strategy="covering", latency=0.01)
        consumer = network.add_client("C", "B1")
        consumer.subscribe_location_dependent(
            {"location": MYLOC},
            movement_graph=graph,
            plan=UncertaintyPlan.static(1),
            initial_location="a",
        )
        driver = ItineraryDriver(network, consumer)
        driver.schedule_logical(LogicalItinerary.from_pairs([(0.0, "a"), (1.0, "a"), (2.0, "b")]))
        network.settle()
        assert consumer.current_location == "b"
        assert len(driver.realised_locations) == 3


class TestRoamingDriving:
    def test_roaming_through_brokers_is_lossless(self):
        network = PubSubNetwork(line_topology(4), strategy="covering", latency=0.02)
        producer = network.add_client("P", "B4")
        producer.advertise({"topic": "news"})
        from repro.broker.client import Client

        consumer = Client("C")
        consumer.subscribe({"topic": "news"})
        driver = ItineraryDriver(network, consumer)
        driver.schedule_roaming(
            RoamingItinerary.from_visits(
                [(0.0, 3.0, "B1"), (4.0, 7.0, "B2"), (8.0, float("inf"), "B3")]
            )
        )

        # Publications start only after the initial subscription had time to
        # propagate end to end (~0.06 s); anything published before that is
        # legitimately undeliverable and not part of the completeness claim.
        start = network.now + 0.5
        for index in range(30):
            network.clock.schedule_at(
                start + 0.33 * index, producer.publish, {"topic": "news", "index": index}
            )
        network.run_until(start + 12.0)
        network.settle()

        assert check_completeness(network.trace, "C", Filter({"topic": "news"})).complete
        assert check_no_duplicates(network.trace, "C").clean
        assert [broker for _, broker in driver.realised_attachments if broker] == [
            "B1",
            "B2",
            "B3",
        ]

    def test_attachment_timeline_records_detaches(self):
        network = PubSubNetwork(line_topology(2), strategy="covering", latency=0.01)
        from repro.broker.client import Client

        consumer = Client("C")
        consumer.subscribe({"topic": "news"})
        driver = ItineraryDriver(network, consumer)
        driver.schedule_roaming(
            RoamingItinerary.from_visits([(0.0, 2.0, "B1"), (3.0, float("inf"), "B2")])
        )
        network.run_until(5.0)
        timeline = driver.realised_attachments
        assert timeline[0][1] == "B1"
        assert timeline[1][1] is None
        assert timeline[2][1] == "B2"
