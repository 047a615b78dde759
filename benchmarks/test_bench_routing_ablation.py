"""Routing-strategy ablation (the Section 2.2 claims).

Covering-based routing "significantly decreas[es] the table size" compared
to simple routing, and merging reduces it further.  The benchmark
registers many overlapping location subscriptions from clients spread over
a broker tree and reports the resulting routing-table sizes and
administrative traffic per strategy, plus a raw matching-throughput
microbenchmark of the dispatch plan.
"""

import pytest

from repro.broker.network import PubSubNetwork
from repro.dispatch.plan import DispatchPlan
from repro.filters.filter import Filter
from repro.metrics.counters import MessageCounter
from repro.routing.table import RoutingTable
from repro.sim.rng import DeterministicRandom
from repro.topology.builders import balanced_tree_topology

from tests.oracles.matching import checked_match

LOCATIONS = ["loc-{:02d}".format(index) for index in range(12)]


def _build_and_subscribe(strategy: str, subscribers_per_leaf: int = 6):
    topology = balanced_tree_topology(depth=2, fanout=3)
    network = PubSubNetwork(topology, strategy=strategy, latency=0.005)
    leaves = topology.leaves()
    producer = network.add_client("producer", leaves[0])
    producer.advertise({"service": "parking"})
    rng = DeterministicRandom(17)
    for leaf_index, leaf in enumerate(leaves[1:4]):
        for client_index in range(subscribers_per_leaf):
            client = network.add_client("c-{}-{}".format(leaf_index, client_index), leaf)
            span = rng.randint(1, 4)
            start = rng.randint(0, len(LOCATIONS) - span)
            client.subscribe(
                {"service": "parking", "location": ("in", LOCATIONS[start : start + span])}
            )
    network.settle()
    inner_tables = {
        name: broker.routing_table_size()
        for name, broker in network.brokers.items()
        if name not in leaves
    }
    counter = MessageCounter(network.trace)
    return {
        "max_inner_table": max(inner_tables.values()),
        "total_inner_table": sum(inner_tables.values()),
        "admin_messages": counter.breakdown().admin,
    }


@pytest.mark.parametrize("strategy", ["simple", "covering", "merging"])
def test_routing_table_sizes_per_strategy(benchmark, strategy):
    """Routing-table size and admin traffic for each routing strategy."""
    stats = benchmark(_build_and_subscribe, strategy)
    benchmark.extra_info.update(stats)
    assert stats["max_inner_table"] > 0


def test_covering_and_merging_shrink_tables(benchmark):
    """Direct comparison: merging <= covering <= simple inner-table size."""

    def compare():
        return {name: _build_and_subscribe(name) for name in ("simple", "covering", "merging")}

    stats = benchmark.pedantic(compare, iterations=1, rounds=1)
    benchmark.extra_info.update({k: v["total_inner_table"] for k, v in stats.items()})
    assert stats["covering"]["total_inner_table"] <= stats["simple"]["total_inner_table"]
    assert stats["merging"]["total_inner_table"] <= stats["covering"]["total_inner_table"]
    assert stats["merging"]["total_inner_table"] < stats["simple"]["total_inner_table"]


def test_matching_engine_throughput(benchmark):
    """Microbenchmark: matching a notification against 1000 routing rows."""
    table = RoutingTable()
    plan = DispatchPlan(table, RoutingTable())
    rng = DeterministicRandom(5)
    for index in range(1000):
        location = LOCATIONS[rng.randint(0, len(LOCATIONS) - 1)]
        table.add(
            Filter({"service": "parking", "location": location, "cost": ("<", rng.randint(1, 9))}),
            "link-{}".format(index),
            "subject",
        )
    notification = {"service": "parking", "location": LOCATIONS[3], "cost": 2}

    matches = benchmark(plan.match, notification)
    benchmark.extra_info["matching_filters"] = len(matches)
    assert matches
    checked_match(plan, table, notification)
