"""The columnar trace answers exactly what a list of record objects would.

Random interleavings of the four ``record_*`` hooks, ``clear()`` and
client deliveries — through a border broker (durable redeliveries
suppressed by the client included) and to a client with no broker — are
fed to the production :class:`~repro.runtime.trace.TraceRecorder` and to
the reference recorder of ``tests/oracles/trace.py``.  After every step
each view (index, negative index, slice, ``len``, ``==``), each query
helper, the link-message aggregations of :mod:`repro.metrics.counters`
and every ``Client.received`` must equal the reference.
"""

from hypothesis import given, settings, strategies as st

from repro.broker.client import Client
from repro.broker.network import PubSubNetwork
from repro.filters.filter import Filter
from repro.messages.admin import Subscribe
from repro.messages.base import MessageKind
from repro.messages.control import Heartbeat
from repro.messages.mobility import LocationUpdate, subscription_token
from repro.messages.notification import Notification
from repro.metrics.counters import MessageCounter, cumulative_message_series, messages_per_second
from repro.runtime.trace import DeliveryRecord
from repro.topology.builders import line_topology
from tests.oracles import trace as oracle

#: ``(client, subscription, durable)``; the last client never has a broker.
SUBSCRIBERS = (("alice", "a", True), ("bob", "b", False), ("carol", "c", True))
#: Link endpoints; one equals a delivery's ``(client, subscription)`` pair.
PAIRS = (("B1", "B2"), ("B2", "B1"), ("B2", "B3"), ("alice", "a"))
NOTIFICATIONS = 4
MESSAGES = NOTIFICATIONS + 3
REASONS = ("loss", "partition")

times = st.integers(min_value=0, max_value=6).map(lambda half_seconds: half_seconds / 2)
sequences = st.integers(min_value=1, max_value=4)
notes = st.integers(min_value=0, max_value=NOTIFICATIONS - 1)
operations = st.one_of(
    st.tuples(st.just("link"), times, st.sampled_from(PAIRS), st.integers(0, MESSAGES - 1)),
    st.tuples(
        st.just("drop"),
        times,
        st.sampled_from(PAIRS),
        st.integers(0, MESSAGES - 1),
        st.sampled_from(REASONS),
    ),
    st.tuples(st.just("publish"), times, notes),
    st.tuples(
        st.just("record_delivery"),
        times,
        st.sampled_from(SUBSCRIBERS),
        notes,
        st.none() | sequences,
    ),
    st.tuples(st.just("deliver"), st.sampled_from(SUBSCRIBERS), notes, sequences),
    st.just(("clear",)),
)


def _messages():
    notifications = [
        Notification({"n": n}, publisher="p", publisher_seq=n + 1) for n in range(NOTIFICATIONS)
    ]
    return notifications + [
        Subscribe(Filter({"n": 1}), subject="s"),
        LocationUpdate("alice", "a", "x", "y"),
        Heartbeat("B1", 0.0),
    ]


def _assert_same_sequence(mine, spec):
    assert len(mine) == len(spec)
    assert mine == spec and list(mine) == spec and (mine != spec) is False
    assert all(mine[index] == spec[index] for index in range(-len(spec), len(spec)))
    for cut in (slice(None, None, 2), slice(1, -1), slice(None, None, -1), slice(-3, None)):
        assert mine[cut] == spec[cut]


def _assert_same_trace(trace, reference):
    _assert_same_sequence(trace.link_records, reference.link_records)
    _assert_same_sequence(trace.delivery_records, reference.delivery_records)
    assert trace.publish_records == reference.publish_records
    assert trace.drop_records == reference.drop_records

    windows = [(None, None), (1.0, None), (None, 1.5), (2.5, 0.5)]
    for until, since in windows:
        for kind in (None, *MessageKind):
            assert trace.link_messages(kind, until, since) == reference.link_messages(
                kind, until, since
            )
            assert trace.count_link_messages(kind, until, since) == (
                reference.count_link_messages(kind, until, since)
            )
            for reason in (None, *REASONS):
                assert trace.drops(kind, reason, until, since) == reference.drops(
                    kind, reason, until, since
                )
        assert trace.publishes(until) == reference.publishes(until)
        counter = MessageCounter(trace)
        counted = counter.breakdown(until, since)
        assert (counted.notifications, counted.admin, counted.mobility) == oracle.breakdown(
            reference, until, since
        )
        assert counter.per_link(until) == oracle.per_link(reference, until)
        assert counter.per_message_type(until) == oracle.per_message_type(reference, until)
    for client_id in ("alice", "bob", "carol", "B1", "nobody"):
        assert trace.deliveries_for(client_id) == reference.deliveries_for(client_id)
    samples = [2.0, 0.0, 0.75, 3.0]
    for kind in (None, MessageKind.NOTIFICATION, MessageKind.MOBILITY):
        assert cumulative_message_series(
            trace, samples, kind
        ) == oracle.cumulative_message_series(reference, samples, kind)
    for horizon, bucket in ((3.0, 1.0), (1.5, 0.5)):
        assert messages_per_second(trace, horizon, bucket) == oracle.messages_per_second(
            reference, horizon, bucket
        )


@settings(max_examples=150, deadline=None)
@given(schedule=st.lists(operations, max_size=30))
def test_columns_and_views_equal_the_reference_recorder(schedule):
    network = PubSubNetwork(line_topology(1), strategy="covering", latency=0.01)
    clients = {}
    for client_id, subscription_id, durable in SUBSCRIBERS:
        client = network.add_client(client_id, "B1") if client_id != "carol" else Client(client_id)
        client.subscribe({"n": ("<", 10)}, subscription_id=subscription_id, durable=durable)
        clients[client_id] = client
    network.settle()
    broker = network.broker("B1")
    trace, reference = network.trace, oracle.ReferenceRecorder()
    messages = _messages()
    received = {client_id: [] for client_id in clients}
    last = {client_id: 0 for client_id in clients}

    for operation in schedule:
        name, arguments = operation[0], operation[1:]
        if name == "link":
            time, (source, target), message = arguments
            for recorder in (trace, reference):
                recorder.record_link(time, source, target, messages[message])
        elif name == "drop":
            time, (source, target), message, reason = arguments
            for recorder in (trace, reference):
                recorder.record_drop(time, source, target, messages[message], reason)
        elif name == "publish":
            time, note = arguments
            for recorder in (trace, reference):
                recorder.record_publish(time, messages[note])
        elif name == "record_delivery":
            time, (client_id, subscription_id, _), note, sequence = arguments
            row = trace.record_delivery(time, client_id, subscription_id, messages[note], sequence)
            expected = reference.record_delivery(
                time, client_id, subscription_id, messages[note], sequence
            )
            assert trace.delivery_records[row] == expected
        elif name == "deliver":
            (client_id, subscription_id, durable), note, sequence = arguments
            client, notification = clients[client_id], messages[note]
            if client.attached:
                token = subscription_token(client_id, subscription_id)
                subscription = broker._clients[client_id].subscriptions[token]
                broker._deliver_to_client(subscription, notification, sequence)
                time = network.clock.now
                record = reference.record_delivery(
                    time, client_id, subscription_id, notification, sequence
                )
            else:
                client.deliver(subscription_id, notification, sequence)
                record = DeliveryRecord(0.0, client_id, subscription_id, notification, sequence)
            if not durable or sequence > last[client_id]:
                received[client_id].append(record)
            last[client_id] = max(last[client_id], sequence)
        else:
            trace.clear()
            reference.clear()

        _assert_same_trace(trace, reference)
        for client_id, client in clients.items():
            _assert_same_sequence(client.received, received[client_id])
