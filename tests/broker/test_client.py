"""Unit tests for the client library."""

import pytest

from repro.broker.client import Client, ClientError
from repro.broker.network import PubSubNetwork
from repro.core.adaptivity import UncertaintyPlan
from repro.core.ploc import MovementGraph
from repro.filters.filter import Filter
from repro.messages.notification import Notification
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


def _notification(n):
    return Notification(attributes={"topic": "news", "n": n}, publisher="p", publisher_seq=n)


class TestWithdrawnSubscriptions:
    """What a client keeps of a subscription once it is withdrawn."""

    def test_withdrawing_a_durable_subscription_with_a_gap(self):
        # A withdrawn subscription misses nothing: its gaps go with it.
        client = Client("c")
        subscription = client.subscribe({"topic": "news"}, durable=True)
        client.deliver(subscription, _notification(1), 1)
        client.deliver(subscription, _notification(3), 3)
        assert client.unfilled_gap_ranges() == [(2, 2)]
        client.unsubscribe(subscription)
        assert client.unfilled_gap_ranges() == []
        assert client.unfilled_gap_ranges(subscription) == []

    def test_a_late_delivery_to_a_withdrawn_id(self):
        seen = []
        client = Client("c", notify=lambda sub, notification, seq: seen.append((sub, seq)))
        subscription = client.subscribe({"topic": "news"})
        client.deliver(subscription, _notification(1), 1)
        client.unsubscribe(subscription)
        assert client.last_sequence(subscription) == 0
        # Delivered to the application, but it is no subscription's progress.
        client.deliver(subscription, _notification(5), 5)
        assert client.last_sequence(subscription) == 0
        assert seen == [(subscription, 1), (subscription, 5)]
        assert [r.sequence for r in client.received] == [1, 5]
        assert client.subscription_ids() == []

    @pytest.mark.parametrize(
        "withdrawn_detached", [False, True], ids=["withdrawn-attached", "withdrawn-detached"]
    )
    def test_reusing_a_withdrawn_id_while_detached_then_moving(self, network, withdrawn_detached):
        # The reused id is a new subscription, registered where the client
        # arrives: it gets what is published from then on, numbered afresh.
        producer = network.add_client("producer", "B3")
        producer.advertise({"topic": "news"})
        consumer = network.add_client("consumer", "B1")
        consumer.subscribe({"topic": "news"}, subscription_id="s")
        network.settle()
        producer.publish({"topic": "news", "n": 1})
        network.settle()
        if withdrawn_detached:
            consumer.detach()
            consumer.unsubscribe("s")
        else:
            consumer.unsubscribe("s")
            network.settle()
            consumer.detach()
        producer.publish({"topic": "news", "n": 2})
        network.settle()
        consumer.subscribe({"topic": "news"}, subscription_id="s")
        producer.publish({"topic": "news", "n": 3})
        network.settle()
        consumer.move_to(network.broker("B2"))
        network.settle()
        producer.publish({"topic": "news", "n": 4})
        network.settle()
        received = [(r.notification.attributes["n"], r.sequence) for r in consumer.received]
        assert received == [(1, 1), (4, 1)]


class TestResubscribingAHeldId:
    """Subscribing again with an id the client holds, while attached, replaces it."""

    def test_a_durable_resubscribe_keeps_the_numbering(self):
        # The border numbers on from where it was; restarting at 1 would
        # have the client suppress the next notifications as duplicates.
        network = PubSubNetwork(line_topology(2), strategy="covering", latency=0.01)
        producer = network.add_client("p", "B2")
        producer.advertise({"topic": "news"})
        consumer = network.add_client("c", "B1")
        consumer.subscribe({"topic": "news"}, subscription_id="s", durable=True)
        network.settle()
        for n in (1, 2, 3):
            producer.publish({"topic": "news", "n": n})
        network.settle()
        consumer.subscribe({"topic": "news"}, subscription_id="s", durable=True)
        for n in (4, 5, 6):
            producer.publish({"topic": "news", "n": n})
        network.settle()
        received = [(r.notification.attributes["n"], r.sequence) for r in consumer.received]
        assert received == [(n, n) for n in range(1, 7)]
        assert consumer.counters["duplicates_suppressed"] == 0

    def test_a_new_filter_withdraws_the_old_one(self):
        network = PubSubNetwork(line_topology(2), strategy="covering", latency=0.01)
        producer = network.add_client("p", "B2")
        producer.advertise({"service": ("in", ("parking", "fuel"))})
        consumer = network.add_client("d", "B1")
        consumer.subscribe({"service": "parking"}, subscription_id="s")
        network.settle()
        consumer.subscribe({"service": "fuel"}, subscription_id="s")
        network.settle()
        for service in ("parking", "fuel"):
            producer.publish({"service": service})
        network.settle()
        assert [r.notification.attributes["service"] for r in consumer.received] == ["fuel"]
        for broker in network.brokers.values():
            rows = broker.subscription_table.entries_for_subject("d/s")
            assert [row.filter for row in rows] == [Filter({"service": "fuel"})], broker.name

    @staticmethod
    def _news():
        """``p`` at B2 advertises the news; ``c`` at B1 will subscribe."""
        network = PubSubNetwork(line_topology(2), strategy="covering", latency=0.01)
        producer = network.add_client("p", "B2")
        producer.advertise({"topic": "news"})
        consumer = network.add_client("c", "B1")
        return network, producer, consumer

    @staticmethod
    def _subscribe_near(consumer, location):
        consumer.subscribe_location_dependent(
            {"topic": "news"},
            MovementGraph.line(["a", "b", "c"]),
            UncertaintyPlan.static(2),
            location,
            subscription_id="s",
        )

    @staticmethod
    def _held(network):
        """What each broker holds of ``c/s``: its logical state, its rows."""
        return {
            name: (
                "c/s" in broker.logical.states,
                sorted(
                    row.filter.key()
                    for row in broker.subscription_table.entries_for_subject("c/s")
                ),
            )
            for name, broker in network.brokers.items()
        }

    def test_a_plain_resubscribe_withdraws_the_location_dependent_one(self):
        network, producer, consumer = self._news()
        self._subscribe_near(consumer, "a")
        network.settle()
        consumer.subscribe({"topic": "news"}, subscription_id="s")
        network.settle()
        plain = [Filter({"topic": "news"}).key()]
        assert self._held(network) == {"B1": (False, plain), "B2": (False, plain)}
        consumer.unsubscribe("s")
        network.settle()
        assert self._held(network) == {"B1": (False, []), "B2": (False, [])}
        producer.publish({"topic": "news", "location": "b"})
        network.settle()
        assert network.broker("B2").counters["notifications_forwarded"] == 0
        assert consumer.received == []

    def test_a_location_dependent_resubscribe_withdraws_the_plain_one(self):
        network, producer, consumer = self._news()
        consumer.subscribe({"topic": "news"}, subscription_id="s")
        network.settle()
        self._subscribe_near(consumer, "a")
        network.settle()
        for location in ("c", "a"):
            producer.publish({"topic": "news", "location": location})
        network.settle()
        assert [r.notification.attributes["location"] for r in consumer.received] == ["a"]
        assert [held for held, _ in self._held(network).values()] == [True, True]
        consumer.unsubscribe("s")
        network.settle()
        assert self._held(network) == {"B1": (False, []), "B2": (False, [])}
