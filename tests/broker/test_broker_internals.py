"""White-box tests of broker internals: forwarding refresh, junction
 detection, counterpart handling and introspection helpers."""

import dataclasses
import itertools

import pytest

from repro.broker import base
from repro.broker.network import PubSubNetwork
from repro.broker.recovery import Reliability
from repro.core.logical import LogicalMobility
from repro.core.physical import PhysicalMobility
from repro.filters.filter import Filter
from repro.messages.admin import Advertise, Subscribe, Unsubscribe
from repro.messages.base import MessageKind
from repro.messages.mobility import subscription_token
from repro.messages.wire import message_type_registry
from repro.topology.builders import line_topology


def admin_messages_on(network, source, target, message_type=None):
    records = [
        r
        for r in network.trace.link_records
        if r.source == source and r.target == target and r.kind != MessageKind.NOTIFICATION
    ]
    if message_type is not None:
        records = [r for r in records if r.message_type == message_type]
    return records


class TestForwardingRefresh:
    def test_duplicate_subscription_not_forwarded_twice(self):
        network = PubSubNetwork(line_topology(3), strategy="covering", latency=0.01)
        producer = network.add_client("P", "B3")
        producer.advertise({"topic": "news"})
        consumer = network.add_client("C", "B1")
        sub_id = consumer.subscribe({"topic": "news"})
        network.settle()
        count_before = len(admin_messages_on(network, "B1", "B2", "Subscribe"))
        # Re-registering the identical filter for the same subscription is
        # a no-op at the forwarding layer.
        network.broker("B1").client_subscribe("C", sub_id, Filter({"topic": "news"}))
        network.settle()
        count_after = len(admin_messages_on(network, "B1", "B2", "Subscribe"))
        assert count_after == count_before

    def test_covering_suppresses_narrower_forward(self):
        """A second, narrower subscription is not forwarded separately under
        covering routing."""
        network = PubSubNetwork(line_topology(3), strategy="covering", latency=0.01)
        producer = network.add_client("P", "B3")
        producer.advertise({"topic": "news"})
        consumer = network.add_client("C", "B1")
        consumer.subscribe({"topic": "news"})
        network.settle()
        forwarded_before = network.broker("B1").forwarded_subscription_count("B2")
        consumer.subscribe({"topic": "news", "priority": (">", 5)})
        network.settle()
        forwarded_after = network.broker("B1").forwarded_subscription_count("B2")
        # The wider filter covers the narrower one, so the narrower
        # subscription is forwarded under the covering filter: one pair per
        # subject, but both map to the same (covering) filter.
        b2_entries = network.broker("B2").subscription_table.entries_for_destination("B1")
        distinct_filters = {entry.filter.key() for entry in b2_entries}
        assert len(distinct_filters) == 1
        assert forwarded_after >= forwarded_before

    def test_simple_routing_forwards_both_filters(self):
        network = PubSubNetwork(line_topology(3), strategy="simple", latency=0.01)
        producer = network.add_client("P", "B3")
        producer.advertise({"topic": "news"})
        consumer = network.add_client("C", "B1")
        consumer.subscribe({"topic": "news"})
        consumer.subscribe({"topic": "news", "priority": (">", 5)})
        network.settle()
        b2_entries = network.broker("B2").subscription_table.entries_for_destination("B1")
        distinct_filters = {entry.filter.key() for entry in b2_entries}
        assert len(distinct_filters) == 2

    def test_unsubscribe_propagates_upstream(self):
        network = PubSubNetwork(line_topology(3), strategy="covering", latency=0.01)
        producer = network.add_client("P", "B3")
        producer.advertise({"topic": "news"})
        consumer = network.add_client("C", "B1")
        sub_id = consumer.subscribe({"topic": "news"})
        network.settle()
        consumer.unsubscribe(sub_id)
        network.settle()
        assert len(admin_messages_on(network, "B1", "B2", "Unsubscribe")) == 1
        assert len(admin_messages_on(network, "B2", "B3", "Unsubscribe")) == 1
        assert network.broker("B3").routing_table_size() == 0

    def test_flooding_never_forwards_subscriptions(self):
        network = PubSubNetwork(line_topology(3), strategy="flooding", latency=0.01)
        consumer = network.add_client("C", "B1")
        consumer.subscribe({"topic": "news"})
        network.settle()
        assert admin_messages_on(network, "B1", "B2") == []


class TestForwardingDiffEmission:
    """``_emit_forwarding_diff`` sends a diff in one deterministic order:
    Subscribes before Unsubscribes, each by type-ranked filter key, then
    subject — whatever order the diff dicts were filled in, and without
    paying for sort keys when there is nothing to order."""

    class _RecordingLink:
        def __init__(self):
            self.sent = []

        def send(self, message):
            self.sent.append((type(message), message.filter.key(), message.subject))

    def _emit(self, to_add, to_remove):
        broker = PubSubNetwork(line_topology(2), strategy="covering", latency=0.01).broker("B1")
        link = broker._links["B2"] = self._RecordingLink()
        to_add, to_remove = dict(to_add), dict(to_remove)
        forwarded = dict(to_remove)
        broker._emit_forwarding_diff("B2", forwarded, to_add, to_remove)
        assert forwarded == to_add
        return link.sent

    @staticmethod
    def _sorted_as_before(message_type, diff):
        # The pre-change emission order: always sorted(), always keyed.
        return [
            (message_type, filter_key, subject)
            for (filter_key, subject), _ in sorted(diff, key=base._forwarding_sort_key)
        ]

    def test_multi_element_diff_is_emitted_in_sorted_order(self):
        # Keys mixing numbers, strings, booleans and operator tuples do not
        # compare natively; two subjects share one filter.
        filters = [Filter({"a": value}) for value in (1, "x", True, ("<", 3))]
        adds = [((f.key(), "s1"), f) for f in filters] + [((filters[0].key(), "s0"), filters[0])]
        removes = [((Filter({"c": value}).key(), "s2"), Filter({"c": value})) for value in (2, 1)]
        expected = self._sorted_as_before(Subscribe, adds) + self._sorted_as_before(
            Unsubscribe, removes
        )
        assert len({message[1:] for message in expected}) == 7
        for permutation in itertools.permutations(adds):
            assert self._emit(permutation, reversed(removes)) == expected

    def test_tiny_diffs_skip_the_sort_tokens(self):
        filter_ = Filter({"never": "tokenised"})
        item = ((filter_.key(), "s1"), filter_)
        assert self._emit([item], []) == self._sorted_as_before(Subscribe, [item])
        assert self._emit([], [item]) == self._sorted_as_before(Unsubscribe, [item])
        assert self._emit([], []) == []
        filter_._sort_token = None  # memoised by _sorted_as_before only
        self._emit([item], [])
        self._emit([], [item])
        assert filter_._sort_token is None


class TestJunctionAndCounterparts:
    def test_counterpart_created_per_subscription(self):
        network = PubSubNetwork(line_topology(2), strategy="covering", latency=0.01)
        producer = network.add_client("P", "B2")
        producer.advertise({"topic": "news"})
        consumer = network.add_client("C", "B1")
        first = consumer.subscribe({"topic": "news"})
        second = consumer.subscribe({"topic": "sports"})
        network.settle()
        consumer.detach()
        broker = network.broker("B1")
        assert broker.physical.counterpart_for("C", first) is not None
        assert broker.physical.counterpart_for("C", second) is not None

    def test_detach_without_counterpart_drops_notifications(self):
        network = PubSubNetwork(line_topology(2), strategy="covering", latency=0.01)
        producer = network.add_client("P", "B2")
        producer.advertise({"topic": "news"})
        consumer = network.add_client("C", "B1")
        consumer.subscribe({"topic": "news"})
        network.settle()
        network.broker("B1").detach_client("C", keep_counterpart=False)
        producer.publish({"topic": "news"})
        network.settle()
        assert consumer.received == []
        assert not network.broker("B1").physical.counterparts

    def test_junction_is_detected_where_new_path_meets_old_tree(self):
        """With the producer at B3, the old delivery tree is B3-B4-B5-B6; the
        MovedSubscribe from B1 travels toward the advertiser and first meets
        that tree at B3, which therefore acts as the junction."""
        network = PubSubNetwork(line_topology(6), strategy="covering", latency=0.01)
        producer = network.add_client("P", "B3")
        producer.advertise({"topic": "news"})
        consumer = network.add_client("C", "B6")
        consumer.subscribe({"topic": "news"})
        network.settle()
        consumer.detach()
        network.settle()
        consumer.move_to(network.broker("B1"))
        network.settle()
        # Exactly one fetch request was sent, by the junction broker B3.
        fetch_senders = [
            name
            for name, broker in network.brokers.items()
            if broker.counters["fetch_requests_sent"] > 0
        ]
        assert fetch_senders == ["B3"]

    def test_relocation_records_capture_latency(self):
        network = PubSubNetwork(line_topology(4), strategy="covering", latency=0.05)
        producer = network.add_client("P", "B4")
        producer.advertise({"topic": "news"})
        consumer = network.add_client("C", "B3")
        consumer.subscribe({"topic": "news"})
        network.settle()
        consumer.detach()
        producer.publish({"topic": "news"})
        network.settle()
        consumer.move_to(network.broker("B1"))
        network.settle()
        records = network.broker("B1").physical.relocation_records
        assert len(records) == 1
        assert records[0].completed_at is not None
        assert records[0].replayed == 1
        assert records[0].old_border == "B3"


class TestBrokerGuards:
    def test_operations_on_unattached_client_rejected(self):
        from repro.messages.notification import Notification

        network = PubSubNetwork(line_topology(2), strategy="covering", latency=0.01)
        broker = network.broker("B1")
        with pytest.raises(ValueError):
            broker.client_subscribe("ghost", "sub", Filter({"a": 1}))
        with pytest.raises(ValueError):
            broker.client_publish("ghost", Notification({"a": 1}, "ghost", 1))

    def test_unknown_message_type_rejected(self):
        network = PubSubNetwork(line_topology(2), strategy="covering", latency=0.01)
        broker = network.broker("B1")
        with pytest.raises(TypeError):
            broker.receive(object(), network.links[("B2", "B1")])  # type: ignore[arg-type]

    def test_link_source_must_match_broker(self):
        network = PubSubNetwork(line_topology(2), strategy="covering", latency=0.01)
        broker = network.broker("B1")
        foreign_link = network.links[("B2", "B1")]
        with pytest.raises(ValueError):
            broker.add_link(foreign_link)

    def test_client_name_collision_with_broker_rejected(self):
        network = PubSubNetwork(line_topology(2), strategy="covering", latency=0.01)
        with pytest.raises(ValueError):
            network.add_client("B1", "B2")

    def test_subscription_token_format(self):
        assert subscription_token("car", "sub-1") == "car/sub-1"

    def test_broker_config_fields_are_pinned(self):
        """Every field is a configuration axis tests and benchmarks must
        cover: adding one is a conscious edit of this list."""
        assert [field.name for field in dataclasses.fields(base.BrokerConfig)] == [
            "use_advertisements",
            "counterpart_max_buffer",
            "propagate_unchanged_location_updates",
            "forward_retention",
        ]

    def test_is_border_broker(self):
        network = PubSubNetwork(line_topology(3), strategy="covering", latency=0.01)
        network.add_client("C", "B1")
        assert network.broker("B1").is_border_broker()
        assert not network.broker("B2").is_border_broker()


class TestMessageTable:
    """``Broker._MESSAGE_TABLE``: one row per message type a broker link
    carries, saying how it enters the broker."""

    #: Registered on the wire but never sent over a broker link: telemetry
    #: travels to sinks and collectors, a snapshot to stable storage, and a
    #: sequenced notification only inside a ``Replay``.
    NOT_ON_LINKS = {
        "LogEvent",
        "MetricSnapshotEvent",
        "SpanEvent",
        "RoutingSnapshot",
        "SequencedNotification",
    }
    JOURNALED = {
        "Subscribe",
        "Unsubscribe",
        "Advertise",
        "Unadvertise",
        "MovedSubscribe",
        "LocationDependentSubscribe",
        "LocationDependentUnsubscribe",
        "LocationUpdate",
    }
    RECEIVED_COUNTER = {
        MessageKind.NOTIFICATION: "notifications_received",
        MessageKind.ADMIN: "admin_received",
        MessageKind.MOBILITY: "mobility_received",
        MessageKind.CONTROL: "control_received",
    }
    #: The component whose state a message type's handler works on; the
    #: other rows (routing and notifications) are the broker's own.
    OWNERS = {
        "MovedSubscribe": PhysicalMobility,
        "FetchRequest": PhysicalMobility,
        "Replay": PhysicalMobility,
        "RelocationComplete": PhysicalMobility,
        "LocationDependentSubscribe": LogicalMobility,
        "LocationDependentUnsubscribe": LogicalMobility,
        "LocationUpdate": LogicalMobility,
        "Heartbeat": Reliability,
        "ForwardAck": Reliability,
        "SequencedForward": Reliability,
    }

    def test_every_link_message_type_has_exactly_one_row(self):
        link_types = {
            message_type
            for name, message_type in message_type_registry().items()
            if name not in self.NOT_ON_LINKS
        }
        assert len(link_types) == 15
        assert set(base.Broker._MESSAGE_TABLE) == link_types

    def test_journaled_rows(self):
        journaled = {
            message_type.__name__
            for message_type, (_, is_journaled, _, _, _) in base.Broker._MESSAGE_TABLE.items()
            if is_journaled
        }
        assert journaled == self.JOURNALED

    def test_each_row_counts_its_kinds_received_counter(self):
        for message_type, (counter, _, _, _, _) in base.Broker._MESSAGE_TABLE.items():
            assert counter == self.RECEIVED_COUNTER[message_type.kind], message_type

    def test_each_handler_belongs_to_the_component_that_owns_its_state(self):
        broker = PubSubNetwork(line_topology(2), strategy="covering", latency=0.01).broker("B1")
        for message_type, (_, _, _, component, handler) in base.Broker._MESSAGE_TABLE.items():
            owner_class = self.OWNERS.get(message_type.__name__, base.Broker)
            owner = broker if component is None else getattr(broker, component)
            assert type(owner) is owner_class, message_type
            assert getattr(owner_class, handler.__name__) is handler, message_type

    def test_client_operations_are_journaled_but_not_counted_as_received(self):
        network = PubSubNetwork(line_topology(2), strategy="covering", latency=0.01)
        broker = network.broker("B1")
        broker.reliability.enable_recovery()
        network.add_client("P", "B2").advertise({"topic": "news"})
        network.settle()
        network.add_client("C", "B1").subscribe({"topic": "news"})
        network.settle()
        journal = [(record.origin, type(record.entry)) for record in broker.recovery.log_tail()]
        assert journal == [("B2", Advertise), ("C", Subscribe)]
        assert broker.counters["admin_received"] == 1
