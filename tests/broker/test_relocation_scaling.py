"""Tripwire: what a relocation costs the covering forwarding states.

Section 4.1's relocation re-registers a moved filter along the new path,
so at each broker there a filter's first contributing row dies while a
later row survives: the filter's canonical position moves.  A
:class:`~repro.broker.forwarding.NeighbourForwardingState` records the
shift, and its next refresh takes the one entry out of its selection and
puts it back at its new position, which asks the covering questions of
that entry and its members only: the 20 relocations below ask 683.  While
a shift re-ran the neighbour's whole reduction, they asked 47,197, against
12,513 for building and settling the network of 420 subscriptions they
move among.
"""

from repro.broker.network import PubSubNetwork
from repro.sim.rng import DeterministicRandom
from repro.topology.builders import balanced_tree_topology

SUBSCRIBERS_PER_LEAF = 140  # 3 populated leaves -> 420 distinct subscriptions
MOVES = 20


def _covering_questions(network):
    cache = network.filter_caches.covering
    return cache.hits + cache.misses


def _distinct_population():
    """``benchmarks/test_bench_scale._run_scale_workload``'s tree and
    ``distinct`` population, settled; the network and its subscribers."""
    topology = balanced_tree_topology(depth=3, fanout=2)
    network = PubSubNetwork(topology, strategy="covering", latency=0.005)
    leaves = topology.leaves()
    producer = network.add_client("producer", leaves[0])
    producer.advertise({"service": "parking"})
    network.settle()
    rng = DeterministicRandom(17)
    pool = ["loc-{:04d}".format(index) for index in range(2 * SUBSCRIBERS_PER_LEAF)]
    taken = set()
    clients = []
    for leaf_index, leaf in enumerate(leaves[1:4]):
        for client_index in range(SUBSCRIBERS_PER_LEAF):
            client = network.add_client("c-{}-{}".format(leaf_index, client_index), leaf)
            locations = tuple(sorted(rng.sample(pool, 1 + client_index % 3)))
            while locations in taken:
                locations = tuple(sorted(rng.sample(pool, 1 + client_index % 3)))
            taken.add(locations)
            client.subscribe({"service": "parking", "location": ("in", locations)})
            clients.append(client)
    network.settle()
    return network, clients


def test_relocations_ask_fewer_covering_questions_than_the_set_up(table_scan_calls):
    network, clients = _distinct_population()
    set_up = _covering_questions(network)
    unbuilt = [
        state
        for broker in network.brokers.values()
        for state in broker.forwarding.states.values()
        if not state.valid
    ]
    built = table_scan_calls["rebuild_from_rows"]

    leaves = network.graph.leaves()
    for index, client in enumerate(clients[:MOVES]):
        client.move_to(network.broker(leaves[4 + index % 3]))
    network.settle()
    relocation = _covering_questions(network) - set_up

    # No state re-ran its reduction over its entries: each shift was
    # applied in place.  Only states no refresh needed before (around
    # the leaves the subscribers move to) are built now, once each.
    assert table_scan_calls["rebuild_from_rows"] - built == sum(state.valid for state in unbuilt)
    assert relocation <= set_up
