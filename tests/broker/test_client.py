"""Unit tests for the client library."""

import pytest

from repro.broker.client import Client, ClientError
from repro.broker.network import PubSubNetwork
from repro.filters.filter import Filter
from repro.topology.builders import line_topology


@pytest.fixture
def network():
    return PubSubNetwork(line_topology(3), strategy="covering", latency=0.01)


class TestLifecycle:
    def test_attach_twice_rejected(self, network):
        client = Client("c")
        client.attach(network.broker("B1"))
        with pytest.raises(ClientError):
            client.attach(network.broker("B2"))

    def test_publish_requires_attachment(self):
        client = Client("c")
        with pytest.raises(ClientError):
            client.publish({"a": 1})

    def test_subscribe_while_detached_registers_on_attach(self, network):
        producer = network.add_client("producer", "B3")
        producer.advertise({"topic": "news"})
        client = Client("c")
        client.subscribe({"topic": "news"})
        client.attach(network.broker("B1"))
        network.settle()
        producer.publish({"topic": "news"})
        network.settle()
        assert len(client.received) == 1

    def test_detach_is_idempotent(self, network):
        client = Client("c")
        client.detach()  # not attached: no effect
        client.attach(network.broker("B1"))
        client.detach()
        client.detach()
        assert not client.attached

    def test_client_id_with_a_slash_is_rejected(self, network):
        # A border broker keys a subscription as "client/subscription"; an
        # id with a '/' of its own would be split there and lose every
        # delivery.
        with pytest.raises(ValueError):
            network.add_client("team/alice", "B1")
        assert "team/alice" not in network.clients
        with pytest.raises(ValueError):
            Client("a/b")

    def test_move_to_same_broker_is_a_noop(self, network):
        client = network.add_client("c", "B1")
        broker = client.border_broker
        client.move_to(broker)
        assert client.border_broker is broker

    def test_notify_callback_invoked(self, network):
        seen = []
        producer = network.add_client("producer", "B3")
        producer.advertise({"topic": "news"})
        client = Client("c", notify=lambda sub, notification, seq: seen.append(seq))
        client.attach(network.broker("B1"))
        client.subscribe({"topic": "news"})
        network.settle()
        producer.publish({"topic": "news"})
        network.settle()
        assert seen == [1]


class TestSequencesAndBookkeeping:
    def test_last_sequence_tracks_deliveries(self, network):
        producer = network.add_client("producer", "B3")
        producer.advertise({"topic": "news"})
        consumer = network.add_client("consumer", "B1")
        subscription = consumer.subscribe({"topic": "news"})
        network.settle()
        for _ in range(3):
            producer.publish({"topic": "news"})
        network.settle()
        assert consumer.last_sequence(subscription) == 3
        assert [r.sequence for r in consumer.received] == [1, 2, 3]

    def test_received_identities_filtered_by_subscription(self, network):
        producer = network.add_client("producer", "B3")
        producer.advertise({"topic": "news"})
        consumer = network.add_client("consumer", "B1")
        news = consumer.subscribe({"topic": "news"})
        sports = consumer.subscribe({"topic": "sports"})
        network.settle()
        producer.publish({"topic": "news"})
        network.settle()
        assert len(consumer.received_identities(news)) == 1
        assert consumer.received_identities(sports) == []

    def test_subscription_ids_lists_both_kinds(self, network):
        from repro.core.adaptivity import UncertaintyPlan
        from repro.core.location_filter import MYLOC
        from repro.core.ploc import MovementGraph

        consumer = network.add_client("consumer", "B1")
        plain = consumer.subscribe({"topic": "news"})
        logical = consumer.subscribe_location_dependent(
            {"topic": "news", "location": MYLOC},
            movement_graph=MovementGraph.paper_example(),
            plan=UncertaintyPlan.static(2),
            initial_location="a",
        )
        assert set(consumer.subscription_ids()) == {plain, logical}

    def test_filter_object_accepted_directly(self, network):
        consumer = network.add_client("consumer", "B1")
        subscription = consumer.subscribe(Filter({"a": 1}))
        assert subscription in consumer.subscription_ids()

    def test_publisher_sequence_increments(self, network):
        producer = network.add_client("producer", "B1")
        first = producer.publish({"a": 1})
        second = producer.publish({"a": 2})
        assert (first.publisher_seq, second.publisher_seq) == (1, 2)

    def test_unsubscribe_forgets_subscription(self, network):
        consumer = network.add_client("consumer", "B1")
        subscription = consumer.subscribe({"a": 1})
        consumer.unsubscribe(subscription)
        assert subscription not in consumer.subscription_ids()

    def test_repr_mentions_attachment(self, network):
        consumer = network.add_client("consumer", "B1")
        assert "B1" in repr(consumer)
        consumer.detach()
        assert "detached" in repr(consumer)
