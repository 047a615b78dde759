"""Unit tests for the message model."""

import pytest

from repro.broker.network import PubSubNetwork
from repro.core.adaptivity import UncertaintyPlan
from repro.core.location_filter import LocationDependentFilter, LocationDependentSubscribe, MYLOC
from repro.core.ploc import MovementGraph
from repro.filters.filter import Filter
from repro.messages.admin import Advertise, Subscribe, Unadvertise, Unsubscribe
from repro.messages.base import EMPTY_META, MessageKind
from repro.messages.mobility import (
    FetchRequest,
    LocationUpdate,
    MovedSubscribe,
    Replay,
)
from repro.messages.notification import Notification, SequencedNotification
from repro.telemetry.events import LogEvent
from repro.topology.builders import line_topology
from tests.oracles.trace import message_keeping_runtime


class TestNotification:
    def test_attributes_validated(self):
        notification = Notification({"a": 1, "b": "x"}, publisher="p", publisher_seq=3)
        assert notification["a"] == 1
        assert notification.get("b") == "x"
        assert notification.get("missing", "default") == "default"
        assert "a" in notification
        assert notification.identity == ("p", 3)

    def test_invalid_attribute_values_rejected(self):
        with pytest.raises(Exception):
            Notification({"a": [1, 2]}, publisher="p", publisher_seq=1)
        with pytest.raises(ValueError):
            Notification({"": 1}, publisher="p", publisher_seq=1)

    def test_message_ids_are_unique_and_increasing(self):
        """A bare message carries id 0.  A network numbers the messages it
        builds 1, 2, 3 ... in build order, whatever ran before it."""
        assert Notification({"a": 1}, publisher="p", publisher_seq=1).message_id == 0

        def run():
            runtime = message_keeping_runtime(latency=0.05)
            network = PubSubNetwork(line_topology(3), runtime=runtime)
            producer = network.add_client("P", "B1")
            producer.advertise({"a": 1})
            network.add_client("C", "B3").subscribe({"a": 1})
            network.settle()
            first, second = producer.publish({"a": 1}), producer.publish({"a": 1})
            network.settle()
            sent = {id(message): message.message_id for message in network.trace.sent}
            return first.message_id, second.message_id, sorted(sent.values())

        first, second, sent = run()
        assert 0 < first < second
        assert len(set(sent)) == len(sent) and 0 not in sent
        assert run() == (first, second, sent)

    def test_kind(self):
        assert Notification({"a": 1}, "p", 1).kind == MessageKind.NOTIFICATION
        assert Subscribe(Filter({"a": 1}), subject="s").kind == MessageKind.ADMIN
        assert (
            MovedSubscribe("c", "s", Filter({"a": 1}), 0, "B1").kind == MessageKind.MOBILITY
        )

    def test_sequenced_notification(self):
        notification = Notification({"a": 1}, publisher="p", publisher_seq=1)
        sequenced = SequencedNotification(notification, "client", "sub", 7)
        assert sequenced.sequence == 7
        assert "seq=7" in sequenced.describe()


class TestMeta:
    def test_empty_meta_is_one_shared_read_only_mapping(self):
        notification = Notification({"a": 1}, publisher="p", publisher_seq=1)
        subscribe = Subscribe(Filter({"a": 1}), subject="s", meta={})
        event = LogEvent("B1", 0.0, "info", "up")
        assert notification.meta is subscribe.meta is event.meta is EMPTY_META
        with pytest.raises(TypeError):
            notification.meta["trace"] = 1
        assert "meta" not in notification.to_wire()
        assert Notification.from_wire(notification.to_wire()).meta is EMPTY_META

    def test_given_meta_stays_a_private_dict_across_the_wire(self):
        given = {"trace": 7}
        subscribe = Subscribe(Filter({"a": 1}), subject="s", meta=given)
        assert subscribe.meta == given and subscribe.meta is not given
        payload = subscribe.to_wire()
        assert payload["meta"] == given
        decoded = Subscribe.from_wire(payload)
        assert type(decoded.meta) is dict and decoded.meta == given
        assert decoded == subscribe


class TestAdminMessages:
    def test_admin_messages_carry_filter_and_subject(self):
        filter_ = Filter({"a": 1})
        for cls in (Subscribe, Unsubscribe, Advertise, Unadvertise):
            message = cls(filter_, subject="client/sub")
            assert message.filter == filter_
            assert message.subject == "client/sub"
            assert cls.__name__ in message.describe()

    def test_admin_requires_filter(self):
        with pytest.raises(TypeError):
            Subscribe({"a": 1}, subject="s")  # type: ignore[arg-type]


class TestMobilityMessages:
    def test_moved_subscribe_fields(self):
        message = MovedSubscribe("C", "sub-1", Filter({"a": 1}), last_sequence=123, new_border="B1")
        assert message.last_sequence == 123
        assert "123" in message.describe()

    def test_fetch_request_fields(self):
        message = FetchRequest("C", "sub-1", Filter({"a": 1}), 123, junction="B4")
        assert message.junction == "B4"

    def test_replay_holds_notifications(self):
        base = Notification({"a": 1}, publisher="p", publisher_seq=1)
        sequenced = SequencedNotification(base, "C", "sub-1", 5)
        replay = Replay("C", "sub-1", [sequenced], origin_border="B6")
        assert len(replay.notifications) == 1
        assert "count=1" in replay.describe()

    def test_location_update(self):
        message = LocationUpdate("C", "sub-1", old_location="a", new_location="b", hop_index=2)
        assert message.hop_index == 2
        assert "a -> b" in message.describe()

    def test_location_dependent_subscribe_advances_hops(self):
        graph = MovementGraph.paper_example()
        plan = UncertaintyPlan.static(3)
        ld_filter = LocationDependentFilter({"service": "parking", "location": MYLOC})
        message = LocationDependentSubscribe("C", "sub", ld_filter, graph, plan, "a", hop_index=1)
        advanced = message.for_next_hop()
        assert advanced.hop_index == 2
        assert advanced.current_location == "a"
        assert advanced.location_filter is ld_filter

    def test_location_dependent_subscribe_validates_location(self):
        graph = MovementGraph.paper_example()
        plan = UncertaintyPlan.static(3)
        ld_filter = LocationDependentFilter({"location": MYLOC})
        with pytest.raises(ValueError):
            LocationDependentSubscribe("C", "sub", ld_filter, graph, plan, "nowhere")
