"""Tripwires: what observing one delivery or one link traversal keeps in memory.

The trace stores deliveries and link traversals as columns — a time and
an id into the recorder's interned endpoint pairs, plus, for a delivery,
the notification reference and its sequence number, and for a link
traversal a one-byte id into the recorder's interned message classes —
and ``Client.received`` keeps one row number per delivery, shared with
the trace.  That is about 34 bytes per delivery (trace and client) and
about 16 per link traversal: 13 of columns (an 8-byte time, a 4-byte pair
id, a 1-byte class id) and about 3 of the one ``PublishRecord`` per
publish.  A link row that kept the message reference cost about 23, and
one ``__slots__`` record per observation, referenced from lists, about 89
and 75.  A link row keeps no message, so a bare network keeps none of
the messages its links carried once they are handled.

On the asyncio runtime a traversal's message is a decoded copy, which a
recorder keeping the link messages (the test's) keeps alive.  The runtime
decodes each distinct payload once, so a notification flooded down a
line is two objects — the publisher's and one decoded — about 160 bytes
of decoder output and notification per traversal; decoding at every hop
kept five objects, about 500 bytes.

A forwarded subscription's filter is a decoded copy too, and every row,
forwarding state and dispatch plan on its path keeps it.  Each network
keeps one live filter per distinct type and key, and every way a filter
enters a client or a broker goes through it: client operations, received
and replayed messages, snapshot restore, ``ploc`` instantiation and the
movement graphs.  On every backend, then, a network holds one object (and
one ``_wire`` memo) per distinct filter, where it held one per client, hop
and broker.
"""

import gc
import tracemalloc

import pytest

from repro.broker.network import PubSubNetwork
from repro.core.adaptivity import UncertaintyPlan
from repro.core.location_filter import MYLOC, LocationDependentFilter
from repro.core.ploc import MovementGraph
from repro.filters.filter import Filter, MatchAll
from repro.messages.admin import Subscribe
from repro.messages.base import Message, MessageKind
from repro.runtime.factory import BACKENDS, make_runtime
from repro.topology.builders import balanced_tree_topology, line_topology
from tests.oracles.trace import message_keeping_runtime

SUBSCRIBERS = 150
PUBLISHES = 200
BYTES_PER_DELIVERY = 48

HOPS = 20
LINK_PUBLISHES = 500
BYTES_PER_LINK_TRAVERSAL = 18

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


def _reachable(root):
    """Every object reachable from *root* through ``gc.get_referents``.

    A class is reached but not walked: through its module it would reach
    the whole process.
    """
    seen, stack = {id(root): root}, [root]
    while stack:
        for referent in gc.get_referents(stack.pop()):
            if id(referent) not in seen:
                seen[id(referent)] = referent
                if not isinstance(referent, type):
                    stack.append(referent)
    return list(seen.values())


def test_a_bare_network_keeps_no_link_message():
    # Kept alive, so no Subscribe made here can reuse the id of an earlier one.
    earlier = [obj for obj in gc.get_objects() if isinstance(obj, Subscribe)]
    earlier_ids = {id(obj) for obj in earlier}
    network = PubSubNetwork(line_topology(3), strategy="covering", latency=0.01)
    producer = network.add_client("producer", "B1")
    producer.advertise({"topic": "news"})
    consumer = network.add_client("consumer", "B3")
    consumer.subscribe({"topic": "news"})
    network.settle()
    producer.publish({"topic": "news", "n": 1})
    network.settle()

    assert len(consumer.received) == 1
    counts = {kind: network.trace.count_link_messages(kind) for kind in MessageKind}
    assert counts[MessageKind.ADMIN] >= 4 and counts[MessageKind.NOTIFICATION] == 2, counts
    gc.collect()
    live = [obj for obj in gc.get_objects() if isinstance(obj, Subscribe)]
    assert [obj for obj in live if id(obj) not in earlier_ids] == []
    reached = _reachable(network.trace.link_columns)
    assert [obj for obj in reached if isinstance(obj, Message)] == []


@pytest.mark.parametrize("backend", ["aio-memory", "aio-tcp"])
def test_forwarded_notifications_share_one_decoded_object(backend):
    network = PubSubNetwork(
        line_topology(WIRE_HOPS + 1), strategy="flooding", runtime=message_keeping_runtime(backend)
    )
    try:
        producer = network.add_client("producer", "B1")
        producer.advertise({"topic": "news"})
        network.settle()
        before = len(network.trace.sent)

        # Paced, like a live publisher: a burst wider than the runtime's
        # decoded-payload bound would push each payload out before its next hop.
        snapshot = _publish_traced(network, producer, WIRE_PUBLISHES, settle_each=True)
    except OSError as error:  # pragma: no cover - sandboxed environments
        pytest.skip("loopback sockets unavailable: {}".format(error))
    finally:
        network.close()

    messages = network.trace.sent[before:]
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


#: Equal filters, each listed two ways.
PERMUTED_TEMPLATES = (
    (
        {"service": "parking", "zone": ("in", ["z4", "z1"])},
        {"zone": ("in", ["z1", "z4"]), "service": "parking"},
    ),
    ({"service": "parking", "price": ("<", 3)}, {"price": ("<", 3), "service": "parking"}),
)


def _made(template):
    return template() if callable(template) else Filter(template)


def _live_census(earlier_ids):
    gc.collect()
    return [
        obj
        for obj in gc.get_objects()
        if isinstance(obj, (Filter, LocationDependentFilter, MovementGraph))
        and id(obj) not in earlier_ids
    ]


def _assert_one_object_per_key(earlier_ids):
    live = _live_census(earlier_ids)
    filters = [obj for obj in live if not isinstance(obj, MovementGraph)]
    distinct = {(type(obj), obj.key()) for obj in filters}
    assert len(filters) <= len(distinct), len(filters) - len(distinct)
    wired = [obj for obj in filters if getattr(obj, "_wire", None) is not None]
    assert wired and len(wired) <= len(distinct)
    assert len([obj for obj in live if isinstance(obj, MovementGraph)]) == 1


def _shared_filter_scenario(network):
    """Clients on a 7-broker tree, with every way a filter enters a broker.

    Subscriptions and advertisements listed in permuted orders, two
    location-dependent subscriptions, a ``move_to``, and a crash + restart
    of two path brokers: one from its journal alone, one from a snapshot.
    Returns ``[(client, subscription ids, advertisement ids)]`` and
    ``[(client, subscription id, the type it was made as)]``.
    """
    network.enable_recovery("B2", "B3")
    held, made = [], []

    def join(client_id, border, templates, advertised=None):
        client = network.add_client(client_id, border)
        ids = []
        for template in templates:
            filter_ = _made(template)
            ids.append(client.subscribe(filter_, durable=True))
            made.append((client, ids[-1], type(filter_)))
        adverts = [] if advertised is None else [client.advertise(_made(advertised))]
        held.append((client, ids, adverts))
        return client

    zone, price = PERMUTED_TEMPLATES
    join("P", "B7", (), {"service": "parking"})
    join("Q", "B4", (), zone[0])
    roamer = join("C0", "B4", (zone[0], price[0]))
    roamer_ids = held[-1][1]
    join("C1", "B5", (zone[1], price[1]), zone[1])
    graph = MovementGraph.grid(4, 4)
    for index, border in enumerate(("B4", "B6")):
        car = network.add_client("car{}".format(index), border)
        template = {"service": "parking", "location": MYLOC}
        if index:
            template = dict(reversed(list(template.items())))
        subscription = car.subscribe_location_dependent(
            template, graph, UncertaintyPlan.static(2), graph.locations()[index]
        )
        held.append((car, [subscription], []))
    network.settle()
    network.clients["car0"].set_location(graph.locations()[5])
    roamer.detach()
    # Made while detached: the client holds its own copy until it attaches.
    roamer_ids.append(roamer.subscribe(_made(price[1]), durable=True))
    made.append((roamer, roamer_ids[-1], Filter))
    roamer.move_to(network.broker("B5"))
    network.settle()
    # After the move: had a MatchAll covered the roamer's filters toward its
    # old border, the relocation would have left that border's row for them
    # in place after the last unsubscribe (a gap of the relocation's
    # garbage collection, not of the filter table).
    join("C2", "B6", (zone[0], price[1], MatchAll, Filter), zone[1])  # one key, two types
    network.settle()
    network.crash_broker("B2")
    network.restart_broker("B2")
    network.snapshot_broker("B3")
    network.crash_broker("B3")
    network.restart_broker("B3")
    network.clients["P"].publish(
        {"service": "parking", "zone": "z1", "price": 2, "location": graph.locations()[5]}
    )
    network.settle()
    return held, made


@pytest.mark.parametrize("backend", BACKENDS)
def test_one_live_filter_per_distinct_filter(backend):
    """Every client, row, forwarding state, logical state and ``_wire`` memo
    of a network refers to one object per (type, key) — decoded, replayed
    and restored copies included — and the network's table holds them only
    while something else does."""
    # Kept alive, so no object made here can reuse the id of an earlier one.
    earlier = _live_census(())
    earlier_ids = {id(obj) for obj in earlier}
    runtime = make_runtime(backend)
    network = PubSubNetwork(balanced_tree_topology(depth=2, fanout=2), runtime=runtime)
    try:
        held, made = _shared_filter_scenario(network)
        _assert_one_object_per_key(earlier_ids)
        # MatchAll and Filter() share a key: each client keeps the type it gave.
        for client, subscription_id, kind in made:
            assert type(client._subscriptions[subscription_id].filter) is kind
        assert all(network.clients[name].received for name in ("C0", "C1", "C2", "car0"))

        for client, subscription_ids, advertisement_ids in held:
            for subscription_id in subscription_ids:
                client.unsubscribe(subscription_id)
            for advertisement_id in advertisement_ids:
                client.unadvertise(advertisement_id)
        network.settle()
    except OSError as error:  # pragma: no cover - sandboxed environments
        pytest.skip("loopback sockets unavailable: {}".format(error))
    finally:
        network.close()
    # The trace and the codec memos keep recent messages by design.
    network.trace.clear()
    for memo in ("_decoded", "_framed"):
        getattr(runtime, memo, {}).clear()
    gc.collect()
    assert len(network.filter_caches.live) == 0, list(network.filter_caches.live)
