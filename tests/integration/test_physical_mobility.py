"""Integration tests of the physical-mobility relocation protocol (Section 4).

The requirements of Section 3.2 are checked end to end: unchanged
interface, completeness, no duplicates, sender-FIFO ordering, and
garbage collection of the old location's resources.
"""

import pytest

from repro.broker.base import BrokerConfig
from repro.broker.client import Client, FloodingRelocationError
from repro.broker.network import PubSubNetwork
from repro.filters.filter import Filter
from repro.messages.base import MessageKind
from repro.messages.wire import message_type_registry
from repro.metrics.qos import check_completeness, check_fifo, check_no_duplicates
from repro.topology.builders import balanced_tree_topology, line_topology
from repro.experiments.fig5_relocation import figure5_topology

from tests.oracles.forwarding import desired_forwarding

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

    def test_flooding_network_refuses_relocation(self):
        """Under flooding no routed row exists for a MovedSubscribe to find a
        junction along, so ``move_to`` refuses to relocate a registered
        subscription rather than strand it in a relocation buffer that is
        never released.  A first attachment is no relocation."""
        network = build(line_topology(4), strategy="flooding")
        producer = network.add_client("P", "B4")
        producer.advertise(WATCHED)
        consumer = network.add_client("C", "B1")
        subscription = consumer.subscribe(WATCHED)
        network.settle()
        producer.publish({"topic": "news", "index": 1})
        network.settle()
        consumer.detach()
        producer.publish({"topic": "news", "index": 2})
        network.settle()
        with pytest.raises(FloodingRelocationError, match="client C cannot relocate"):
            consumer.move_to(network.broker("B2"))
        assert not consumer.attached
        assert not network.broker("B2").attached_clients()
        # The old border still buffers the subscription for its client.
        counterpart = network.broker("B1").physical.counterpart_for("C", subscription)
        assert counterpart.buffered_count() == 1
        newcomer = Client("N")
        newcomer.subscribe(WATCHED)
        newcomer.move_to(network.broker("B2"))
        producer.publish({"topic": "news", "index": 3})
        network.settle()
        assert [record.notification.get("index") for record in newcomer.received] == [3]


    def test_flooding_network_lets_a_client_return_to_its_old_border(self):
        """Coming back to the broker it detached from needs no routed rows:
        the local counterpart replays what it buffered."""
        network = build(line_topology(4), strategy="flooding")
        producer = network.add_client("P", "B4")
        producer.advertise(WATCHED)
        consumer = network.add_client("C", "B1")
        consumer.subscribe(WATCHED)
        network.settle()
        consumer.detach()
        for index in (1, 2):
            producer.publish({"topic": "news", "index": index})
        network.settle()
        consumer.move_to(network.broker("B1"))
        network.settle()
        assert [record.notification.get("index") for record in consumer.received] == [1, 2]
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


class TestRelocationEndsWithItsReplay:
    """One Replay carries the buffered suffix and completes the relocation (Section 4.1)."""

    def _line(self, notify=None):
        network = build(line_topology(3), latency=0.01)
        publishers = []
        for broker in ("B1", "B2", "B3"):
            publisher = network.add_client("p" + broker, broker)
            publisher.advertise({"service": "parking"})
            publishers.append(publisher)
        subscriber = network.add_client("s0", "B1", notify=notify)
        subscriber.subscribe({"service": "parking"})
        network.settle()
        return network, publishers, subscriber

    def test_no_relocation_message_follows_the_replay(self):
        network, publishers, subscriber = self._line()
        subscriber.detach()
        for publisher in publishers:
            publisher.publish({"service": "parking"})
        network.settle()
        before = len(network.trace.link_records)
        subscriber.move_to(network.broker("B3"))
        network.settle()
        records = network.trace.link_records[before:]
        mobility = [r.message_type for r in records if r.kind is MessageKind.MOBILITY]
        assert set(mobility) <= {"MovedSubscribe", "FetchRequest", "Replay"}
        assert "FetchRequest" in mobility and "Replay" in mobility
        assert records[-1].message_type == "Replay"
        assert len(subscriber.received) == 3
        assert len(message_type_registry()) == 14

    def test_the_replay_completes_the_relocation_record(self):
        network, publishers, subscriber = self._line()
        subscriber.detach()
        publishers[0].publish({"service": "parking"})
        network.settle()
        subscriber.move_to(network.broker("B3"))
        publishers[2].publish({"service": "parking"})
        network.settle()
        (relocation,) = network.broker("B3").physical.relocation_records
        assert relocation.completed_at is not None and relocation.latency > 0
        assert (relocation.old_border, relocation.replayed, relocation.fresh) == ("B1", 1, 1)
        assert [r.notification.publisher for r in subscriber.received] == ["pB1", "pB3"]
        (record,) = network.broker("B3")._clients["s0"].subscriptions.values()
        assert record.relocation_buffer is None

    def _two_rows_toward_b3(self):
        """Relocate ``s0`` so that at ``B2`` a token has two rows toward ``B3``.

        They are the diverted row of ``s0``'s narrower subscription and the
        row of the covering filter it was forwarded under.
        """
        network, publishers, subscriber = self._line()
        subscriber.subscribe({"service": "parking", "price": ("<", 5)})
        network.settle()
        subscriber.detach()
        network.settle()
        publishers[0].publish({"service": "parking", "price": 1})
        network.settle()
        subscriber.move_to(network.broker("B3"))
        network.settle()
        return network, subscriber

    def test_a_replay_with_two_rows_toward_a_neighbour_is_delivered_once(self):
        network, subscriber = self._two_rows_toward_b3()
        delivered = [(r.subscription_id, r.notification.identity) for r in subscriber.received]
        assert sorted(delivered) == sorted(
            [(subscription_id, ("pB1", 1)) for subscription_id in subscriber.subscription_ids()]
        )

    def test_a_replay_crosses_each_link_once(self):
        network, _ = self._two_rows_toward_b3()
        replays = [
            (record.source, record.target, record.message.subscription_id)
            for record in network.trace.link_records
            if record.message_type == "Replay"
        ]
        assert sorted(replays) == [
            ("B1", "B2", "s0-sub-1"),
            ("B1", "B2", "s0-sub-2"),
            ("B2", "B3", "s0-sub-1"),
            ("B2", "B3", "s0-sub-2"),
        ]

    def test_a_publication_made_during_the_flush_is_delivered(self):
        """The flush detaches the buffer first, so a delivery it causes is not held."""
        answered = []

        def answer(subscription_id, notification, sequence):
            # The first replayed delivery makes B3's publisher publish at once.
            if not answered:
                answered.append(notification)
                publishers[2].publish({"service": "parking"})

        network, publishers, subscriber = self._line(notify=answer)
        subscriber.detach()
        publishers[0].publish({"service": "parking"})
        network.settle()
        subscriber.move_to(network.broker("B3"))
        network.settle()
        assert answered
        assert [r.notification.publisher for r in subscriber.received] == ["pB1", "pB3"]


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
            network.clock.schedule_at(
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


class TestRefreshTowardTheSender:
    @pytest.mark.xfail(
        strict=True,
        reason="handlers refresh with refresh_all(exclude=from_destination): a mobility "
        "message from N can change what N should hold, and nothing refreshes N afterwards",
    )
    def test_a_move_back_leaves_the_sender_its_desired_set(self):
        """``s0`` moves ``B1 -> B2 -> B1``; ``B2`` must then withdraw what it sent ``B1`` for it.

        Without the refresh, ``B2``'s state toward ``B1`` keeps ``s0``'s two
        subscriptions and ``s1``'s under ``service in {fuel, parking}``
        where the specification wants only ``s1``'s under ``service =
        parking``, so a ``fuel`` publish at ``B1`` crosses ``B1 -> B2`` for
        nobody.
        """
        network = build(line_topology(3), latency=0.01)
        clients = {name: network.add_client(name, "B1") for name in ("p0", "p1", "s0", "s1", "s2")}
        for publisher in ("p0", "p1"):
            clients[publisher].advertise({"service": ("in", ("parking", "fuel"))})
        for subscriber in ("s0", "s1", "s2"):
            clients[subscriber].subscribe({"service": "parking"})
        network.settle()
        clients["s1"].move_to(network.broker("B2"))
        network.settle()
        clients["s0"].subscribe({"service": ("in", ("parking", "fuel"))})
        network.settle()
        clients["s0"].move_to(network.broker("B2"))
        network.settle()
        clients["s0"].move_to(network.broker("B1"))
        network.settle()
        b2 = network.broker("B2")
        state = b2.forwarding.states["B1"]
        assert state.forwarded == desired_forwarding(b2, "B1")
        before = len(network.trace.link_records)
        clients["p0"].publish({"service": "fuel"})
        network.settle()
        assert network.trace.link_records[before:] == []
