"""Trace records are references to the messages, rendered when read.

A link record names the message's class instead: its kind and type name
are read off the class.  Drop, publish and delivery records keep the
message (or notification) itself.  Two things make that safe and are
pinned here:

* **Nothing changes a message after it was sent.**  A test-only recorder
  renders every message at record time — what the recorder used to store
  — and keeps the link messages; at the end of every experiment of the
  backend-parity suite, on all three backends, the kept messages and the
  lazily rendered properties must still say the same.
* **The read API is unchanged**: the four record types answer the same
  attribute names with the same values as the eager records did (a link
  record its time, endpoints, kind and type name), ``Client.received``
  holds rows of the trace and builds records equal to the trace's, and
  ``clear()`` lets go of the messages.
"""

import gc
import weakref

import pytest

from repro.broker.network import PubSubNetwork
from repro.experiments.backends import Backend
from repro.experiments.runner import EXPERIMENTS
from repro.filters.filter import Filter
from repro.messages.admin import Subscribe
from repro.messages.base import MessageKind
from repro.messages.notification import Notification
from repro.runtime.factory import make_runtime
from repro.runtime.trace import (
    DeliveryRecord,
    DropRecord,
    LinkRecord,
    PublishRecord,
    TraceRecorder,
)
from repro.topology.builders import line_topology
from tests.oracles.trace import MessageKeepingRecorder
from tests.runtime.test_backend_parity import recorded_runtimes

BACKENDS = ("sim", "aio-memory", "aio-tcp")


def _rendered_message(message):
    return (message.kind, type(message).__name__, message.message_id, message.describe())


def _rendered_notification(notification):
    return (
        notification.publisher,
        notification.publisher_seq,
        tuple(sorted(notification.attributes.items())),
    )


class SnapshottingRecorder(MessageKeepingRecorder):
    """Keeps, beside each record, what an eager recorder would have copied."""

    def __init__(self):
        super().__init__()
        self.link_snapshots = []
        self.drop_snapshots = []
        self.publish_snapshots = []
        self.delivery_snapshots = []

    def record_link(self, time, source, target, message):
        super().record_link(time, source, target, message)
        self.link_snapshots.append(_rendered_message(message))

    def record_drop(self, time, source, target, message, reason):
        super().record_drop(time, source, target, message, reason)
        self.drop_snapshots.append(_rendered_message(message))

    def record_publish(self, time, notification):
        super().record_publish(time, notification)
        self.publish_snapshots.append(_rendered_notification(notification))

    def record_delivery(self, time, client_id, subscription_id, notification, sequence=None):
        row = super().record_delivery(time, client_id, subscription_id, notification, sequence)
        self.delivery_snapshots.append(_rendered_notification(notification))
        return row

    def assert_nothing_changed_since_recording(self):
        def read_message(record):
            return (record.kind, record.message_type, record.message_id, record.description)

        def read_notification(record):
            return (record.publisher, record.publisher_seq, record.attributes)

        assert [_rendered_message(message) for message in self.sent] == self.link_snapshots
        links = [(r.kind, r.message_type) for r in self.link_records]
        assert links == [snapshot[:2] for snapshot in self.link_snapshots]
        assert [read_message(r) for r in self.drop_records] == self.drop_snapshots
        assert [read_notification(r) for r in self.publish_records] == self.publish_snapshots
        assert [read_notification(r) for r in self.delivery_records] == self.delivery_snapshots


def _snapshotting_runtime(backend, latency=None):
    """A runtime of *backend* recording into a snapshotting recorder."""
    return make_runtime(backend, latency, trace=SnapshottingRecorder())


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_lazy_rendering_equals_rendering_at_record_time(name, backend):
    try:
        with recorded_runtimes(_snapshotting_runtime) as runtimes:
            EXPERIMENTS[name].run(Backend(backend), quick=True)
    except OSError as error:  # pragma: no cover - sandboxed environments
        pytest.skip("loopback sockets unavailable: {}".format(error))
    recorders = [runtime.trace for runtime in runtimes]
    for recorder in recorders:
        recorder.assert_nothing_changed_since_recording()
    if name.startswith(("fig", "failure")):
        # (The table experiments are computed without a network.)
        assert sum(len(recorder.link_records) for recorder in recorders) > 0


# ---------------------------------------------------------------------------
# The read API of the four record types
# ---------------------------------------------------------------------------


def _notification(seq=7, **attributes):
    return Notification(attributes or {"b": 2, "a": 1}, publisher="p", publisher_seq=seq)


def test_a_link_record_reads_kind_and_type_off_the_message_class():
    trace = TraceRecorder()
    subscribe = Subscribe(Filter({"a": 1}), subject="s")
    trace.record_link(1.0, "A", "B", subscribe)
    (link,) = trace.link_records
    assert isinstance(link, LinkRecord)
    assert (link.time, link.source, link.target, link.message_class) == (1.0, "A", "B", Subscribe)
    assert link.kind is MessageKind.ADMIN
    assert link.message_type == "Subscribe"
    assert link == LinkRecord(1.0, "A", "B", Subscribe)
    assert not hasattr(link, "message")


def test_a_drop_record_reads_through_to_the_message():
    trace = TraceRecorder()
    subscribe = Subscribe(Filter({"a": 1}), subject="s")
    trace.record_drop(2.0, "B", "C", subscribe, "partition")
    (drop,) = trace.drop_records
    assert isinstance(drop, DropRecord)
    assert (drop.time, drop.source, drop.target, drop.reason) == (2.0, "B", "C", "partition")
    assert drop.message is subscribe
    assert drop.kind is MessageKind.ADMIN
    assert drop.message_type == "Subscribe"
    assert drop.message_id == subscribe.message_id
    assert drop.description == subscribe.describe()


def test_publish_and_delivery_records_read_through_to_the_notification():
    trace = TraceRecorder()
    notification = _notification()
    trace.record_publish(0.5, notification)
    row = trace.record_delivery(1.5, "client", "sub-1", notification, sequence=3)
    (publish,), (delivery,) = trace.publish_records, trace.delivery_records
    assert isinstance(publish, PublishRecord) and isinstance(delivery, DeliveryRecord)
    assert row == 0 and trace.delivery_records[row] == delivery
    assert publish.time == 0.5
    assert (delivery.time, delivery.client_id, delivery.subscription_id, delivery.sequence) == (
        1.5,
        "client",
        "sub-1",
        3,
    )
    for record in (publish, delivery):
        assert record.notification is notification
        assert record.publisher == "p"
        assert record.publisher_seq == 7
        assert record.attributes == (("a", 1), ("b", 2))
        assert record.identity == ("p", 7)
    # Sorted once, when the notification is built; the identity is built once too.
    assert list(notification.attributes) == ["a", "b"]
    assert publish.identity is delivery.identity is notification.identity
    assert trace.delivery_records[trace.record_delivery(2.0, "client", "sub-1", notification)] == (
        DeliveryRecord(2.0, "client", "sub-1", notification, None)
    )


def test_deliveries_for_filters_by_client_in_delivery_order():
    trace = TraceRecorder()
    for index, client in enumerate(["x", "y", "x"]):
        trace.record_delivery(float(index), client, "s", _notification(seq=index + 1))
    assert [r.publisher_seq for r in trace.deliveries_for("x")] == [1, 3]
    assert [r.publisher_seq for r in trace.deliveries_for("y")] == [2]
    assert trace.deliveries_for("z") == []


def test_clear_releases_the_messages():
    class Probe(Notification):
        """A notification that can be weakly referenced."""

    trace = TraceRecorder()
    probe = Probe({"a": 1}, publisher="p", publisher_seq=1)
    alive = weakref.ref(probe)
    trace.record_publish(0.0, probe)
    trace.record_link(0.0, "A", "B", probe)
    trace.record_drop(0.0, "A", "B", probe, "loss")
    trace.record_delivery(0.0, "client", "s", probe, sequence=1)
    del probe
    gc.collect()
    assert alive() is not None
    trace.clear()
    gc.collect()
    assert alive() is None


def _delivering_network():
    network = PubSubNetwork(line_topology(2), strategy="covering", latency=0.05)
    producer = network.add_client("producer", "B1")
    producer.advertise({"topic": "news"})
    consumer = network.add_client("consumer", "B2")
    consumer.subscribe({"topic": "news"}, subscription_id="s1", durable=True)
    network.settle()
    return network, producer, consumer


def test_client_and_trace_share_one_record_per_delivery():
    network, producer, consumer = _delivering_network()
    for n in range(3):
        producer.publish({"topic": "news", "n": n})
    network.settle()
    assert len(consumer.received) == 3
    # One row per delivery: the client reads the trace's row, so the two
    # build equal records around the very same notification.
    assert consumer.received == network.trace.delivery_records
    assert all(
        mine.notification is traced.notification
        for mine, traced in zip(consumer.received, network.trace.delivery_records)
    )
    assert [r.client_id for r in consumer.received] == ["consumer"] * 3
    assert [r.time for r in consumer.received] == [r.time for r in network.trace.delivery_records]


def test_suppressed_durable_redelivery_is_in_the_trace_but_not_received():
    network, producer, consumer = _delivering_network()
    notification = producer.publish({"topic": "news", "n": 1})
    network.settle()
    broker = network.broker("B2")
    subscription = broker._clients["consumer"].subscriptions["consumer/s1"]
    broker._deliver_to_client(subscription, notification, 1)  # the broker redelivers seq 1
    assert [r.sequence for r in network.trace.deliveries_for("consumer")] == [1, 1]
    assert [r.sequence for r in consumer.received] == [1]
    assert consumer.received[0] == network.trace.delivery_records[0]
    assert consumer.received == network.trace.delivery_records[:1]
    assert consumer.counters["duplicates_suppressed"] == 1


def test_a_client_without_a_broker_makes_its_own_record():
    from repro.broker.client import Client

    client = Client("c")
    client.subscribe({"topic": "news"}, subscription_id="s1")
    notification = _notification(topic="news")
    client.deliver("s1", notification, 4)
    (record,) = client.received
    assert isinstance(record, DeliveryRecord)
    assert (record.time, record.client_id, record.subscription_id, record.sequence) == (
        0.0,
        "c",
        "s1",
        4,
    )
    assert record.notification is notification and record.identity == ("p", 7)
