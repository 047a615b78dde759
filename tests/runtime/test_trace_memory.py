"""Tripwires: what observing one delivery or one link traversal keeps in memory.

The trace stores deliveries and link traversals as columns — a time, an
id into the recorder's interned endpoint pairs, the message reference
and, for a delivery, its sequence number — and ``Client.received`` keeps
one row number per delivery, shared with the trace.  That is about 34
bytes per delivery (trace and client) and about 23 per link traversal.
One ``__slots__`` record per observation, referenced from lists, cost
about 89 and 75; each bound sits between.

On the asyncio runtime a traversal's message is a decoded copy, and the
trace keeps it alive.  The runtime decodes each distinct payload once, so
a notification flooded down a line is two objects — the publisher's and
one decoded — about 160 bytes of decoder output and notification per
traversal; decoding at every hop kept five objects, about 500 bytes.

A forwarded subscription's filter is a decoded copy too, and every row,
forwarding state and dispatch plan on its path keeps it.  The runtime
shares one live ``Filter`` per distinct type and key, so the brokers hold
one object per distinct filter, besides the clients' own.
"""

import gc
import tracemalloc

import pytest

from repro.broker.network import PubSubNetwork
from repro.filters.filter import Filter
from repro.runtime.factory import make_runtime
from repro.topology.builders import line_topology

SUBSCRIBERS = 150
PUBLISHES = 200
BYTES_PER_DELIVERY = 48

HOPS = 20
LINK_PUBLISHES = 500
BYTES_PER_LINK_TRAVERSAL = 32

WIRE_HOPS = 5
WIRE_PUBLISHES = 200
BYTES_DECODED_PER_LINK_TRAVERSAL = 300

FILTER_BROKERS = 7
FILTER_BORDERS = ("B1", "B4", "B7")


def _live_bytes(snapshot, *files):
    observed = snapshot.filter_traces([tracemalloc.Filter(True, "*/" + name) for name in files])
    return sum(statistic.size for statistic in observed.statistics("filename"))


def _publish_traced(network, producer, publishes, settle_each=False):
    tracemalloc.start()
    try:
        for n in range(publishes):
            producer.publish({"topic": "news", "n": n, "price": n * 0.5, "venue": "x"})
            if settle_each:
                network.settle()
        network.settle()
        return tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()


def test_observing_a_delivery_stays_small_and_shared():
    network = PubSubNetwork(line_topology(1), strategy="covering", latency=0.01)
    producer = network.add_client("producer", "B1")
    producer.advertise({"topic": "news"})
    consumers = [network.add_client("consumer-{}".format(i), "B1") for i in range(SUBSCRIBERS)]
    for consumer in consumers:
        consumer.subscribe({"topic": "news"})
    network.settle()

    snapshot = _publish_traced(network, producer, PUBLISHES)

    deliveries = SUBSCRIBERS * PUBLISHES
    assert len(network.trace.delivery_records) == deliveries
    live = _live_bytes(snapshot, "repro/runtime/trace.py", "repro/broker/client.py")
    assert 0 < live <= BYTES_PER_DELIVERY * deliveries, live / deliveries

    # Each client's rows are the trace's rows for it: equal records, in order.
    traced = {}
    for record in network.trace.delivery_records:
        traced.setdefault(record.client_id, []).append(record)
    for consumer in consumers:
        assert len(consumer.received) == PUBLISHES
        assert consumer.received == traced[consumer.client_id]


def test_observing_a_link_traversal_stays_small():
    # Flooding crosses every link without a subscriber: nothing but links is observed.
    network = PubSubNetwork(line_topology(HOPS + 1), strategy="flooding", latency=0.01)
    producer = network.add_client("producer", "B1")
    producer.advertise({"topic": "news"})
    network.settle()
    before = len(network.trace.link_records)

    snapshot = _publish_traced(network, producer, LINK_PUBLISHES)

    traversals = len(network.trace.link_records) - before
    assert traversals == HOPS * LINK_PUBLISHES
    # (The one ``PublishRecord`` per publish adds about 3 bytes per traversal.)
    live = _live_bytes(snapshot, "repro/runtime/trace.py")
    assert 0 < live <= BYTES_PER_LINK_TRAVERSAL * traversals, live / traversals


@pytest.mark.parametrize("backend", ["aio-memory", "aio-tcp"])
def test_forwarded_notifications_share_one_decoded_object(backend):
    network = PubSubNetwork(
        line_topology(WIRE_HOPS + 1), strategy="flooding", runtime=make_runtime(backend)
    )
    try:
        producer = network.add_client("producer", "B1")
        producer.advertise({"topic": "news"})
        network.settle()
        before = len(network.trace.link_columns)

        # Paced, like a live publisher: a burst wider than the runtime's
        # decoded-payload bound would push each payload out before its next hop.
        snapshot = _publish_traced(network, producer, WIRE_PUBLISHES, settle_each=True)
    except OSError as error:  # pragma: no cover - sandboxed environments
        pytest.skip("loopback sockets unavailable: {}".format(error))
    finally:
        network.close()

    messages = network.trace.link_columns.messages[before:]
    assert len(messages) == WIRE_HOPS * WIRE_PUBLISHES
    # The publisher's object on the first hop, one decoded object on every later hop.
    assert len({id(message) for message in messages}) <= 2 * WIRE_PUBLISHES
    live = _live_bytes(snapshot, "json/decoder.py", "repro/messages/notification.py")
    assert 0 < live <= BYTES_DECODED_PER_LINK_TRAVERSAL * len(messages), live / len(messages)


@pytest.mark.parametrize("backend", ["aio-memory", "aio-tcp"])
def test_forwarded_subscriptions_share_one_decoded_filter(backend):
    # Kept alive, so no filter made here can reuse the id of an earlier one.
    earlier = [obj for obj in gc.get_objects() if isinstance(obj, Filter)]
    earlier_ids = {id(obj) for obj in earlier}
    network = PubSubNetwork(
        line_topology(FILTER_BROKERS), strategy="simple", runtime=make_runtime(backend)
    )
    try:
        client_filters = []
        for index, border in enumerate(FILTER_BORDERS):
            client = network.add_client("C{}".format(index), border)
            own = [
                Filter({"topic": "news"}),  # equal at every border
                Filter({"topic": "news"}),  # equal again, as a second subscription
                Filter({"topic": "news", "n": ("<", index)}),  # distinct per border
            ]
            client.advertise(own[0])
            for filter_ in own:
                client.subscribe(filter_)
            client_filters.extend(own)
        network.settle()
    except OSError as error:  # pragma: no cover - sandboxed environments
        pytest.skip("loopback sockets unavailable: {}".format(error))
    finally:
        network.close()

    shared = {}
    for broker in network.brokers.values():
        for table in (broker.subscription_table, broker.advertisement_table):
            for row in table:
                if row.destination in network.brokers:  # came over the wire
                    key = (type(row.filter), row.filter.key())
                    assert shared.setdefault(key, row.filter) is row.filter, row.describe()
    assert len(shared) == 4

    gc.collect()
    live = [
        obj for obj in gc.get_objects() if isinstance(obj, Filter) and id(obj) not in earlier_ids
    ]
    assert len(live) <= len(shared) + len(client_filters), len(live)
