"""Tripwire: what the dispatch plane keeps in memory per routing row.

Each broker's :class:`~repro.dispatch.plan.DispatchPlan` stores each fact
once: one big-int mask per predicate (the filters referencing it), the
predicate key and constraint per predicate, the predicates per filter,
and one tuple of routing rows per filter.  While the index also kept a
set of filters and a removal descriptor per predicate, the matcher a
second copy of every mask and the plan a dict of rows per filter key, the
population below cost about 1,280 bytes per routing row under
``repro/dispatch`` once every plan was built; it now costs about 540
(CPython 3.11).  The bound sits between the two.  The population is the
all-distinct one of ``tests/broker/test_admission_scaling.py``; a plan is
built by the first notification its broker matches, so one notification
is published per location, which reaches every subscriber.
"""

import tracemalloc

from tests.broker.test_admission_scaling import distinct_population

SUBSCRIPTIONS = 420
BYTES_PER_ROW = 750


def test_the_dispatch_plane_stores_each_fact_once():
    tracemalloc.start()
    try:
        network = distinct_population(SUBSCRIPTIONS)
        producer = network.clients["producer"]
        for index in range(SUBSCRIPTIONS // 2):
            producer.publish({"service": "parking", "location": "loc-{:04d}".format(index)})
        network.settle()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()

    subscribers = [client for name, client in network.clients.items() if name != "producer"]
    assert all(client.received for client in subscribers)
    rows = sum(network.routing_table_sizes().values())
    assert rows > 4 * SUBSCRIPTIONS
    plane = snapshot.filter_traces([tracemalloc.Filter(True, "*/repro/dispatch/*")])
    live = sum(statistic.size for statistic in plane.statistics("filename"))
    assert 0 < live <= BYTES_PER_ROW * rows, live / rows
