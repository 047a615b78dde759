"""Tripwire: what the forwarding plane keeps in memory per input entry.

Each neighbour's :class:`~repro.broker.forwarding.NeighbourForwardingState`
and its :class:`~repro.filters.covering_cache.CoveringIndex` store each
fact once: an input entry holds its contributions as two flat multisets
and the key of its cover (a selected input is its own cover), dropped
members are recorded only for the covers that have any, a desired pair
is one refcounted tuple whose filter is read from its cover key, and the
index keeps only the anchor attribute and the filter per position.
While the state also kept a selection set, an assignment dict, a member
set per cover, a desired dict, a position -> key dict and two dicts per
entry, and the index a placement tuple and a bucket-key list per
position, the population below cost about 2,660 bytes per input entry
allocated under ``repro/broker/forwarding.py`` and
``repro/filters/covering_cache.py``; it now costs about 1,710 (CPython
3.11).  Both figures include the network's shared covering memo and the
Subscribe messages still alive.  The bound sits between the two.  The
population is the all-distinct one of
``tests/broker/test_admission_scaling.py``, settled.
"""

import tracemalloc

from tests.broker.test_admission_scaling import distinct_population

SUBSCRIPTIONS = 420
BYTES_PER_ENTRY = 2200


def test_the_forwarding_plane_stores_each_fact_once():
    tracemalloc.start()
    try:
        network = distinct_population(SUBSCRIPTIONS)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()

    entries = sum(
        len(state.entries)
        for broker in network.brokers.values()
        for state in broker.forwarding.states.values()
    )
    assert entries > 3 * SUBSCRIPTIONS
    plane = snapshot.filter_traces(
        [
            tracemalloc.Filter(True, "*/repro/broker/forwarding.py"),
            tracemalloc.Filter(True, "*/repro/filters/covering_cache.py"),
        ]
    )
    live = sum(statistic.size for statistic in plane.statistics("filename"))
    assert 0 < live <= BYTES_PER_ENTRY * entries, live / entries
