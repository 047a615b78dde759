"""Integration tests of basic content-based pub/sub over the broker network."""

import pytest

from repro.broker.network import PubSubNetwork
from repro.filters.filter import Filter
from repro.metrics.counters import MessageCounter
from repro.metrics.qos import check_completeness, check_fifo, check_no_duplicates
from repro.topology.builders import balanced_tree_topology, line_topology, star_topology

STRATEGIES = ["simple", "covering", "merging", "flooding"]


def build_line(strategy):
    network = PubSubNetwork(line_topology(4), strategy=strategy, latency=0.05)
    producer = network.add_client("producer", "B4")
    producer.advertise({"topic": "news"})
    consumer = network.add_client("consumer", "B1")
    return network, producer, consumer


class TestDeliveryAcrossStrategies:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_matching_notification_is_delivered(self, strategy):
        network, producer, consumer = build_line(strategy)
        consumer.subscribe({"topic": "news"})
        network.settle()
        producer.publish({"topic": "news", "headline": "hello"})
        network.settle()
        assert len(consumer.received) == 1
        assert consumer.received[0].notification.get("headline") == "hello"

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_non_matching_notification_is_filtered(self, strategy):
        network, producer, consumer = build_line(strategy)
        consumer.subscribe({"topic": "news"})
        network.settle()
        producer.publish({"topic": "sports"})
        network.settle()
        assert consumer.received == []

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_fifo_and_exactly_once(self, strategy):
        network, producer, consumer = build_line(strategy)
        consumer.subscribe({"topic": "news"})
        network.settle()
        for index in range(10):
            producer.publish({"topic": "news", "index": index})
        network.settle()
        assert len(consumer.received) == 10
        assert check_fifo(network.trace, "consumer").ordered
        assert check_no_duplicates(network.trace, "consumer").clean
        assert check_completeness(network.trace, "consumer", Filter({"topic": "news"})).complete

    @pytest.mark.parametrize("strategy", ["simple", "covering", "merging"])
    def test_content_based_selectivity(self, strategy):
        network, producer, consumer = build_line(strategy)
        consumer.subscribe({"topic": "news", "priority": (">", 5)})
        network.settle()
        for priority in range(10):
            producer.publish({"topic": "news", "priority": priority})
        network.settle()
        priorities = sorted(r.notification.get("priority") for r in consumer.received)
        assert priorities == [6, 7, 8, 9]


class TestMultipleClients:
    def test_independent_subscriptions(self):
        network = PubSubNetwork(star_topology(3, hub="hub"), strategy="covering", latency=0.01)
        producer = network.add_client("producer", "B1")
        producer.advertise({"type": "quote"})
        alice = network.add_client("alice", "B2")
        bob = network.add_client("bob", "B3")
        alice.subscribe({"type": "quote", "symbol": "REBECA"})
        bob.subscribe({"type": "quote", "symbol": "SIENA"})
        network.settle()
        producer.publish({"type": "quote", "symbol": "REBECA", "price": 10})
        producer.publish({"type": "quote", "symbol": "SIENA", "price": 20})
        producer.publish({"type": "quote", "symbol": "OTHER", "price": 30})
        network.settle()
        assert [r.notification.get("symbol") for r in alice.received] == ["REBECA"]
        assert [r.notification.get("symbol") for r in bob.received] == ["SIENA"]

    def test_same_broker_producer_and_consumer(self):
        network = PubSubNetwork(line_topology(2), strategy="covering", latency=0.01)
        producer = network.add_client("producer", "B1")
        producer.advertise({"a": 1})
        consumer = network.add_client("consumer", "B1")
        consumer.subscribe({"a": 1})
        network.settle()
        producer.publish({"a": 1})
        network.settle()
        assert len(consumer.received) == 1

    def test_publisher_does_not_receive_own_notification_unless_subscribed(self):
        network = PubSubNetwork(line_topology(2), strategy="covering", latency=0.01)
        peer = network.add_client("peer", "B1")
        peer.advertise({"a": 1})
        network.settle()
        peer.publish({"a": 1})
        network.settle()
        assert peer.received == []

    def test_overlapping_subscriptions_deliver_once_per_subscription(self):
        network = PubSubNetwork(line_topology(3), strategy="covering", latency=0.01)
        producer = network.add_client("producer", "B3")
        producer.advertise({"topic": "news"})
        consumer = network.add_client("consumer", "B1")
        wide = consumer.subscribe({"topic": "news"})
        narrow = consumer.subscribe({"topic": "news", "priority": (">", 5)})
        network.settle()
        producer.publish({"topic": "news", "priority": 9})
        network.settle()
        subscriptions = sorted(r.subscription_id for r in consumer.received)
        assert subscriptions == sorted([wide, narrow])


class TestUnsubscribe:
    @pytest.mark.parametrize("strategy", ["simple", "covering"])
    def test_unsubscribe_stops_delivery(self, strategy):
        network, producer, consumer = build_line(strategy)
        subscription = consumer.subscribe({"topic": "news"})
        network.settle()
        producer.publish({"topic": "news", "index": 1})
        network.settle()
        consumer.unsubscribe(subscription)
        network.settle()
        producer.publish({"topic": "news", "index": 2})
        network.settle()
        assert len(consumer.received) == 1

    def test_unsubscribe_cleans_remote_routing_tables(self):
        network, producer, consumer = build_line("covering")
        subscription = consumer.subscribe({"topic": "news"})
        network.settle()
        sizes_before = network.routing_table_sizes()
        consumer.unsubscribe(subscription)
        network.settle()
        sizes_after = network.routing_table_sizes()
        # The consumer's filter must have disappeared from the upstream brokers.
        assert sizes_after["B2"] < sizes_before["B2"]
        assert sizes_after["B3"] < sizes_before["B3"]
        assert sizes_after["B4"] < sizes_before["B4"]


class TestEfficiencyContrast:
    def test_flooding_sends_more_notifications_than_covering(self):
        totals = {}
        for strategy in ("flooding", "covering"):
            network = PubSubNetwork(
                balanced_tree_topology(depth=2, fanout=2), strategy=strategy, latency=0.01
            )
            leaves = balanced_tree_topology(depth=2, fanout=2).leaves()
            producer = network.add_client("producer", leaves[0])
            producer.advertise({"topic": "news"})
            consumer = network.add_client("consumer", leaves[1])
            consumer.subscribe({"topic": "news", "priority": 1})
            network.settle()
            for index in range(20):
                producer.publish({"topic": "news", "priority": index % 3})
            network.settle()
            counter = MessageCounter(network.trace)
            totals[strategy] = counter.breakdown().notifications
        assert totals["flooding"] > totals["covering"]
