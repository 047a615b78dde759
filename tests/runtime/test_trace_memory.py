"""Tripwire: what observing one delivery keeps in memory.

The trace and ``Client.received`` hold one shared, by-reference
:class:`~repro.runtime.trace.DeliveryRecord` per delivery (about 90 bytes
with the two list slots).  The eager records this replaced cost about
540 bytes per delivery: a sorted attribute tuple, a dict-backed record
and a second, client-side record.  The bound sits between the two.
"""

import tracemalloc

from repro.broker.network import PubSubNetwork
from repro.topology.builders import line_topology

SUBSCRIBERS = 150
PUBLISHES = 200
BYTES_PER_DELIVERY = 160


def test_observing_a_delivery_stays_small_and_shared():
    network = PubSubNetwork(line_topology(1), strategy="covering", latency=0.01)
    producer = network.add_client("producer", "B1")
    producer.advertise({"topic": "news"})
    consumers = [network.add_client("consumer-{}".format(i), "B1") for i in range(SUBSCRIBERS)]
    for consumer in consumers:
        consumer.subscribe({"topic": "news"})
    network.settle()

    tracemalloc.start()
    try:
        for n in range(PUBLISHES):
            producer.publish({"topic": "news", "n": n, "price": n * 0.5, "venue": "x"})
        network.settle()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()

    deliveries = SUBSCRIBERS * PUBLISHES
    assert len(network.trace.delivery_records) == deliveries
    observed = snapshot.filter_traces(
        [
            tracemalloc.Filter(True, "*/repro/runtime/trace.py"),
            tracemalloc.Filter(True, "*/repro/broker/client.py"),
        ]
    )
    live = sum(statistic.size for statistic in observed.statistics("filename"))
    assert 0 < live <= BYTES_PER_DELIVERY * deliveries, live / deliveries

    received = {id(record) for consumer in consumers for record in consumer.received}
    assert len(received) == deliveries
    assert received == {id(record) for record in network.trace.delivery_records}
