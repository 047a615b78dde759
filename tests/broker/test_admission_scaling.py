"""Scaling tripwire for subscription admission under covering routing.

Admitting a subscription asks two covering questions at every broker on
its path: who covers the new filter, and whom does it cover.  Both are
answered from the two-way :class:`~repro.filters.covering_cache.CoveringIndex`
of the neighbour's delta state, so the number of raw covering tests per
admission follows the number of *comparable* filters, not the size of the
selection.  The tests pin that on deterministic counters: with the
eviction question answered by a scan of the selection, quadrupling an
all-distinct population multiplied the raw covering tests by 15; with
every filter that shares ``service = parking`` free to anchor on that
equality, each routing row cost more than six covering questions, and
more the larger the population.
"""

import random

from repro.broker.network import PubSubNetwork
from repro.topology.builders import balanced_tree_topology


def distinct_population(count):
    """A settled depth-3 tree with *count* all-distinct ``location ∈ {…}``
    subscriptions (1–3 locations each, every location shared by about four
    filters whatever the size)."""
    topology = balanced_tree_topology(depth=3, fanout=2)
    network = PubSubNetwork(topology, strategy="covering", latency=0.005)
    leaves = topology.leaves()
    producer = network.add_client("producer", leaves[0])
    producer.advertise({"service": "parking"})
    network.settle()
    rng = random.Random(13)
    pool = ["loc-{:04d}".format(index) for index in range(count // 2)]
    seen = set()
    for index in range(count):
        locations = tuple(sorted(rng.sample(pool, 1 + index % 3)))
        while locations in seen:
            locations = tuple(sorted(rng.sample(pool, 1 + index % 3)))
        seen.add(locations)
        client = network.add_client("c{}".format(index), leaves[1 + index % (len(leaves) - 1)])
        client.subscribe({"service": "parking", "location": ("in", locations)})
    network.settle()
    assert network.routing_table_sizes()[leaves[0]] > 0
    return network


def _settle_distinct_population(count):
    """Covering-cache stats (``misses`` = raw covering tests) of settling
    :func:`distinct_population`."""
    return distinct_population(count).filter_caches.covering.stats()


def test_covering_tests_grow_with_the_population_not_its_square():
    small = _settle_distinct_population(420)
    large = _settle_distinct_population(1680)
    # 4× the subscriptions: linear growth reads 4×, the selection scan read
    # 15.5×, the index 4.9×.
    assert large["misses"] <= 6 * small["misses"]
    # Few enough distinct pairs that the network's cache never had to
    # clear itself and re-evaluate from cold.
    assert large["evictions"] == 0


def _questions_per_routing_row(count):
    """Covering questions (the network memo's hits + misses) asked while
    settling :func:`distinct_population`, per subscription routing row."""
    network = distinct_population(count)
    stats = network.filter_caches.covering.stats()
    rows = sum(network.routing_table_sizes().values())
    return (stats["hits"] + stats["misses"]) / rows


def test_covering_questions_per_routing_row_stay_flat():
    """A covering question only goes to a filter that could answer yes.

    Anchored by how many coverers already sat in a value bucket, about half
    the population ended up in the one ``service = parking`` bucket every
    query reads: 6.54 questions per routing row at 420 subscriptions and
    8.05 at 1,680 (1.23×).  Anchored where the fewest queries look, and
    queried at the smallest of a target's value buckets, it reads 1.88 and
    1.95 (1.03×).
    """
    small = _questions_per_routing_row(420)
    large = _questions_per_routing_row(1680)
    assert small <= 3
    assert large <= 3
    assert large <= 1.2 * small
