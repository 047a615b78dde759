"""Integration tests of the physical-mobility relocation protocol (Section 4).

The requirements of Section 3.2 are checked end to end: unchanged
interface, completeness, no duplicates, sender-FIFO ordering, and
garbage collection of the old location's resources.
"""

import pytest

from repro.broker.base import BrokerConfig
from repro.broker.network import PubSubNetwork
from repro.filters.filter import Filter
from repro.metrics.qos import check_completeness, check_fifo, check_no_duplicates
from repro.topology.builders import balanced_tree_topology, line_topology
from repro.experiments.fig5_relocation import figure5_topology

WATCHED = {"topic": "news"}


def build(topology, strategy="covering", latency=0.05, config=None):
    network = PubSubNetwork(topology, strategy=strategy, latency=latency, config=config)
    return network


def assert_guarantees(network, client_id="C", filter_=None):
    filter_ = filter_ or Filter(WATCHED)
    completeness = check_completeness(network.trace, client_id, filter_)
    assert completeness.complete, completeness.describe()
    assert check_no_duplicates(network.trace, client_id).clean
    assert check_fifo(network.trace, client_id).ordered


class TestBasicRelocation:
    @pytest.mark.parametrize("strategy", ["simple", "covering", "merging"])
    def test_detach_move_reattach_is_lossless(self, strategy):
        network = build(line_topology(6), strategy=strategy)
        producer = network.add_client("P", "B3")
        producer.advertise(WATCHED)
        consumer = network.add_client("C", "B6")
        consumer.subscribe(WATCHED)
        network.settle()

        for index in range(3):
            producer.publish({"topic": "news", "index": index})
        network.settle()

        consumer.detach()
        for index in range(3, 8):
            producer.publish({"topic": "news", "index": index})
        network.settle()
        assert network.broker("B6").physical.counterparts

        consumer.move_to(network.broker("B1"))
        for index in range(8, 11):
            producer.publish({"topic": "news", "index": index})
        network.settle()

        assert len(consumer.received) == 11
        assert_guarantees(network)
        assert not network.broker("B6").physical.counterparts

    def test_interface_is_unchanged_after_relocation(self):
        """After relocating, plain pub/sub keeps working through the same client object."""
        network = build(line_topology(4))
        producer = network.add_client("P", "B4")
        producer.advertise(WATCHED)
        consumer = network.add_client("C", "B1")
        subscription = consumer.subscribe(WATCHED)
        network.settle()
        consumer.move_to(network.broker("B2"))
        network.settle()
        producer.publish({"topic": "news"})
        network.settle()
        assert consumer.received[-1].subscription_id == subscription
        consumer.unsubscribe(subscription)
        network.settle()
        producer.publish({"topic": "news"})
        network.settle()
        assert len(consumer.received) == 1

    def test_reattach_at_same_broker_replays_locally(self):
        network = build(line_topology(3))
        producer = network.add_client("P", "B3")
        producer.advertise(WATCHED)
        consumer = network.add_client("C", "B1")
        consumer.subscribe(WATCHED)
        network.settle()
        consumer.detach()
        for index in range(4):
            producer.publish({"topic": "news", "index": index})
        network.settle()
        consumer.move_to(network.broker("B1"))
        network.settle()
        assert len(consumer.received) == 4
        assert_guarantees(network)
        assert not network.broker("B1").physical.counterparts

    def test_relocation_without_prior_traffic(self):
        network = build(line_topology(4))
        producer = network.add_client("P", "B4")
        producer.advertise(WATCHED)
        consumer = network.add_client("C", "B1")
        consumer.subscribe(WATCHED)
        network.settle()
        consumer.detach()
        network.settle()
        consumer.move_to(network.broker("B2"))
        network.settle()
        producer.publish({"topic": "news"})
        network.settle()
        assert len(consumer.received) == 1
        assert_guarantees(network)

    def test_moving_while_still_attached(self):
        """move_to without an explicit detach first (handover between access points)."""
        network = build(line_topology(5))
        producer = network.add_client("P", "B3")
        producer.advertise(WATCHED)
        consumer = network.add_client("C", "B5")
        consumer.subscribe(WATCHED)
        network.settle()
        for index in range(3):
            producer.publish({"topic": "news", "index": index})
        network.settle()
        consumer.move_to(network.broker("B1"))
        for index in range(3, 6):
            producer.publish({"topic": "news", "index": index})
        network.settle()
        assert len(consumer.received) == 6
        assert_guarantees(network)

    @pytest.mark.xfail(
        strict=True,
        reason="known gap: under flooding no routed row exists, so MovedSubscribe "
        "finds no junction, the relocation buffer at the new border is never "
        "released and the old counterpart is never collected (delivers [1]); "
        "a protocol decision for its own issue, see ROADMAP",
    )
    def test_flooding_subscriber_completes_relocation(self):
        network = build(line_topology(4), strategy="flooding")
        producer = network.add_client("P", "B4")
        producer.advertise(WATCHED)
        consumer = network.add_client("C", "B1")
        consumer.subscribe(WATCHED)
        network.settle()
        producer.publish({"topic": "news", "index": 1})
        network.settle()
        consumer.detach()
        producer.publish({"topic": "news", "index": 2})
        network.settle()
        consumer.move_to(network.broker("B2"))
        producer.publish({"topic": "news", "index": 3})
        network.settle()
        assert [record.notification.get("index") for record in consumer.received] == [1, 2, 3]
        assert not network.broker("B1").physical.counterparts


class TestFigure5Scenarios:
    def test_single_producer_walkthrough(self):
        network = build(figure5_topology())
        producer = network.add_client("P", "B3")
        producer.advertise(WATCHED)
        consumer = network.add_client("C", "B6")
        consumer.subscribe(WATCHED)
        network.settle()
        consumer.detach()
        for index in range(5):
            producer.publish({"topic": "news", "index": index})
        network.settle()
        consumer.move_to(network.broker("B1"))
        network.settle()
        assert len(consumer.received) == 5
        assert_guarantees(network)
        # Old border broker garbage-collected its counterpart.
        assert not network.broker("B6").physical.counterparts

    def test_two_producers_walkthrough(self):
        graph = figure5_topology()
        graph.add_edge("B3", "B9")
        network = build(graph)
        producers = []
        for client_id, broker in (("P1", "B3"), ("P2", "B9")):
            producer = network.add_client(client_id, broker)
            producer.advertise(WATCHED)
            producers.append(producer)
        consumer = network.add_client("C", "B6")
        consumer.subscribe(WATCHED)
        network.settle()
        consumer.detach()
        for producer in producers:
            for index in range(4):
                producer.publish({"topic": "news", "index": index})
        network.settle()
        consumer.move_to(network.broker("B1"))
        for producer in producers:
            for index in range(4, 6):
                producer.publish({"topic": "news", "index": index})
        network.settle()
        assert len(consumer.received) == 12
        assert_guarantees(network)


class TestRepeatedRoaming:
    def test_many_consecutive_relocations(self):
        topology = balanced_tree_topology(depth=2, fanout=2)
        network = build(topology, latency=0.02)
        leaves = topology.leaves()
        producer = network.add_client("P", leaves[0])
        producer.advertise(WATCHED)
        consumer = network.add_client("C", leaves[1])
        consumer.subscribe(WATCHED)
        network.settle()

        index = 0
        for hop, target in enumerate(leaves[2:] + leaves[1:3] + leaves[-2:]):
            for _ in range(3):
                producer.publish({"topic": "news", "index": index})
                index += 1
            network.settle()
            consumer.detach()
            for _ in range(2):
                producer.publish({"topic": "news", "index": index})
                index += 1
            network.settle()
            consumer.move_to(network.broker(target))
            network.settle()

        assert len(consumer.received) == index
        assert_guarantees(network)
        assert not any(broker.physical.counterparts for broker in network.brokers.values())

    def test_relocation_with_publications_in_flight(self):
        """Publications racing the relocation control messages are not lost."""
        network = build(line_topology(6), latency=0.1)
        producer = network.add_client("P", "B3")
        producer.advertise(WATCHED)
        consumer = network.add_client("C", "B6")
        consumer.subscribe(WATCHED)
        network.settle()

        # Publish continuously while the client roams, without settling.
        start = network.now
        for index in range(20):
            network.simulator.schedule_at(
                start + 0.05 * index, producer.publish, {"topic": "news", "index": index}
            )
        network.run_until(start + 0.3)
        consumer.detach()
        network.run_until(start + 0.5)
        consumer.move_to(network.broker("B1"))
        network.settle()

        assert len(consumer.received) == 20
        assert_guarantees(network)


class TestBufferLimits:
    def test_bounded_counterpart_drops_oldest_but_keeps_rest(self):
        config = BrokerConfig(counterpart_max_buffer=3)
        network = build(line_topology(4), config=config)
        producer = network.add_client("P", "B4")
        producer.advertise(WATCHED)
        consumer = network.add_client("C", "B1")
        consumer.subscribe(WATCHED)
        network.settle()
        consumer.detach()
        for index in range(10):
            producer.publish({"topic": "news", "index": index})
        network.settle()
        physical = network.broker("B1").physical
        counterpart = physical.counterpart_for("C", consumer.subscription_ids()[0])
        assert counterpart.buffered_count() == 3
        assert counterpart.overflowed == 7
        consumer.move_to(network.broker("B2"))
        network.settle()
        # Only the 3 newest survived the bounded buffer; no duplicates though.
        assert len(consumer.received) == 3
        assert check_no_duplicates(network.trace, "C").clean
