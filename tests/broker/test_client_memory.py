"""Tripwire: what an attached client with one subscription keeps in memory.

A client keeps one ``__slots__`` record per subscription (its filter,
durability, registration, last sequence number and gaps) in one dict, and
is a ``__slots__`` object itself; its border registration and the
broker's record of the subscription are ``__slots__`` objects too.  While
the client kept that state in six parallel containers (two of them sets)
plus a counters dict and an instance dict, and the border kept two
dict-backed dataclasses, the population below cost about 2,460 bytes of
live ``repro`` allocations per client (CPython 3.11); it now costs about
1,550.  Both readings include the routing row each subscription adds at
the border (about 400 bytes).  The bound sits between the two.
"""

import tracemalloc

from repro.broker.network import PubSubNetwork
from repro.topology.builders import line_topology

CLIENTS = 1000
BYTES_PER_CLIENT = 1900


def test_an_attached_client_with_one_subscription_stays_small():
    network = PubSubNetwork(line_topology(1), strategy="covering", latency=0.01)
    # The filter is live before the census starts: what follows adds clients only.
    network.add_client("first", "B1").subscribe({"topic": "news"})
    network.settle()

    tracemalloc.start()
    try:
        for n in range(CLIENTS):
            network.add_client("c{}".format(n), "B1").subscribe({"topic": "news"})
        network.settle()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()

    assert network.routing_table_sizes() == {"B1": CLIENTS + 1}
    ours = snapshot.filter_traces([tracemalloc.Filter(True, "*/src/repro/*")])
    live = sum(statistic.size for statistic in ours.statistics("filename"))
    assert 0 < live <= BYTES_PER_CLIENT * CLIENTS, live / CLIENTS
