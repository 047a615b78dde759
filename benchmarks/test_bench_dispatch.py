"""Data-plane benchmark: what a notification costs on the bitset dispatch plane.

The control-plane benchmarks (scale, merging) gate how much work a
*routing change* costs; this suite gates how much work a *notification*
costs.  Every broker matches through its ``DispatchPlan``: all table
filters are decomposed into shared predicates, satisfied predicates are
added into bit-plane counters over big-int filter masks, near-universal
predicates are lifted out of counting entirely (shared-predicate
skipping).

Each workload is run twice, on the plan and on the brute-force
specification of ``tests/oracles/matching.py`` (every row's
``Filter.matches``, a linear advertisement-gate scan, its constraint
evaluations counted by the specification itself), and must produce
**byte-identical behaviour**: the same deliveries (identities per
client), the same admin traffic and the same routing tables.  One hard,
deterministic criterion during the publish phase: the plan performs at
least 5× fewer raw constraint evaluations than the brute force (the
original counting-index bar).  The plan's own counters — ``mask_ops``,
``constraint_evals``, ``bitset_rebuilds`` — are
recorded and regression-gated by ``check_bench.py``.

Wall-clock numbers (including the Figure 9 publish phase) are recorded
but never gated.  The suite is backend-parameterised
(``--backend {sim,aio-memory,aio-tcp}``); committed baselines are
sim-only.
"""

import time

from repro.broker.network import PubSubNetwork
from repro.experiments import fig9_message_counts
from repro.metrics.counters import MessageCounter
from repro.runtime.factory import make_runtime
from repro.sim.rng import DeterministicRandom
from repro.telemetry.registry import data_plane_breakdown
from repro.topology.builders import balanced_tree_topology

from tests.oracles.matching import oracle_dispatch

LOCATIONS = ["loc-{:02d}".format(index) for index in range(24)]

SUBSCRIBERS_PER_LEAF = 70  # 3 populated leaves -> 210 overlapping subscriptions
PUBLISHES = 200


def _make_network(backend: str, latency: float) -> PubSubNetwork:
    """A covering-strategy network on *backend*."""
    topology = balanced_tree_topology(depth=3, fanout=2)
    if backend == "sim":
        return PubSubNetwork(topology, strategy="covering", latency=latency)
    runtime = make_runtime(backend, latency=latency)
    return PubSubNetwork(topology, strategy="covering", runtime=runtime)


def _data_plane_counts(brokers, work):
    """The brokers' data-plane breakdown, plus the specification's raw
    constraint evaluations when *work* (its counter) is given."""
    counts = data_plane_breakdown(brokers)
    if work is not None:
        counts["constraint_evals"] += work.constraint_evals
    return counts


def _phase_delta(before, after):
    """Per-key growth of a data-plane breakdown over one phase."""
    return {key: value - before.get(key, 0) for key, value in after.items()}


def _run_publish_workload(backend: str = "sim", work=None):
    """Settle an overlapping subscriber population, then publish heavily.

    *work* is the specification's raw-work counter when the run is on
    the brute force (``with oracle_dispatch() as work``).
    """
    network = _make_network(backend, latency=0.005)
    leaves = network.graph.leaves()
    producer = network.add_client("producer", leaves[0])
    producer.advertise({"service": "parking"})
    network.settle()

    rng = DeterministicRandom(17)
    clients = []
    for leaf_index, leaf in enumerate(leaves[1:4]):
        for client_index in range(SUBSCRIBERS_PER_LEAF):
            client = network.add_client("c-{}-{}".format(leaf_index, client_index), leaf)
            span = rng.randint(1, 5)
            start = rng.randint(0, len(LOCATIONS) - span)
            if client_index == 0:
                # One wide "monitor everything parking" subscriber per
                # leaf: its only predicate is the hot one, which exercises
                # the matcher's zero-residual-arity planes on every publish.
                template = {"service": "parking"}
            else:
                template = {
                    "service": "parking",
                    "location": ("in", LOCATIONS[start : start + span]),
                }
                roll = rng.random()
                if roll < 0.2:
                    template["cost"] = ("<", rng.randint(2, 8))
                elif roll < 0.3:
                    low = rng.randint(0, 4)
                    template["cost"] = ("between", low, low + rng.randint(1, 4))
            client.subscribe(template)
            clients.append(client)
    network.settle()

    # Publish phase: the measured part.
    before = _data_plane_counts(network.brokers.values(), work)
    started = time.perf_counter()
    for index in range(PUBLISHES):
        producer.publish(
            {
                "service": "parking",
                "location": LOCATIONS[index % len(LOCATIONS)],
                "cost": index % 10,
                "index": index,
            }
        )
    network.settle()
    publish_seconds = time.perf_counter() - started
    totals = _data_plane_counts(network.brokers.values(), work)
    stats = _phase_delta(before, totals)

    counter = MessageCounter(network.trace)
    result = {
        "publish_seconds": publish_seconds,
        "constraint_evals": stats["constraint_evals"],
        "dispatch_matches": stats["dispatch_matches"],
        "mask_ops": stats["dispatch_mask_ops"],
        "bitset_rebuilds": stats["dispatch_bitset_rebuilds"],
        "predicates_skipped_shared": stats["dispatch_predicates_skipped_shared"],
        "admin_messages": counter.breakdown().admin,
        "advert_gate_hits": totals["advert_gate_hits"],
        "advert_gate_misses": totals["advert_gate_misses"],
        "delivered": sum(len(client.received) for client in clients),
        "received": {c.client_id: c.received_identities() for c in clients},
        "table_sizes": network.routing_table_sizes(),
    }
    network.close()
    return result


def test_dispatch_count_increment_reduction(benchmark, bench_backend):
    """Publish phase: counting done in wide mask operations, behaviour of the oracle."""
    vectorised = benchmark.pedantic(
        _run_publish_workload, args=(bench_backend,), iterations=1, rounds=1
    )
    with oracle_dispatch() as work:
        oracle = _run_publish_workload(bench_backend, work)

    # Byte-identical data-plane behaviour.
    assert vectorised["received"] == oracle["received"]
    assert vectorised["delivered"] == oracle["delivered"]
    assert vectorised["admin_messages"] == oracle["admin_messages"]
    assert vectorised["table_sizes"] == oracle["table_sizes"]

    delivered = vectorised["delivered"]
    assert delivered > 0
    eval_ratio = oracle["constraint_evals"] / max(vectorised["constraint_evals"], 1)

    # The bitset plane actually ran: wide mask operations did the
    # counting, and the near-universal ``service == parking`` predicate
    # was lifted out of counting arity entirely.
    assert vectorised["mask_ops"] > 0
    assert vectorised["predicates_skipped_shared"] > 0

    benchmark.extra_info.update(
        {
            "subscriptions": 3 * SUBSCRIBERS_PER_LEAF,
            "publishes": PUBLISHES,
            "delivered": delivered,
            "constraint_evals_vectorised": vectorised["constraint_evals"],
            "constraint_evals_oracle": oracle["constraint_evals"],
            "constraint_eval_ratio": round(eval_ratio, 1),
            "mask_ops": vectorised["mask_ops"],
            "bitset_rebuilds": vectorised["bitset_rebuilds"],
            "predicates_skipped_shared": vectorised["predicates_skipped_shared"],
            "evals_per_delivery_vectorised": round(vectorised["constraint_evals"] / delivered, 3),
            "dispatch_matches": vectorised["dispatch_matches"],
            "advert_gate_hits": vectorised["advert_gate_hits"],
            "advert_gate_misses": vectorised["advert_gate_misses"],
            "publish_seconds_vectorised": round(vectorised["publish_seconds"], 4),
        }
    )
    # The original counting-index acceptance criterion: at least 5× fewer
    # raw constraint evaluations than evaluating the rows one by one.
    # The observed ratio is far higher (see BENCH_dispatch.json) because
    # the workload's equality/set/range constraints are all answered by
    # bucket lookups and bisections.
    assert eval_ratio >= 5.0


def test_fig9_publish_phase_wall_time(benchmark):
    """Figure 9 workload, plan vs oracle: same messages, recorded wall time."""

    def run():
        config = fig9_message_counts.Fig9Config(horizon=20.0, sample_interval=10.0)
        started = time.perf_counter()
        result = fig9_message_counts.run(config)
        seconds = time.perf_counter() - started
        return {
            "seconds": seconds,
            "totals": {series.label: series.total_messages for series in result.series},
            "delivered": {series.label: series.delivered for series in result.series},
        }

    vectorised = benchmark.pedantic(run, iterations=1, rounds=1)
    with oracle_dispatch():
        oracle = run()
    # The dispatch plane must not change a single Figure 9 message count.
    assert vectorised["totals"] == oracle["totals"]
    assert vectorised["delivered"] == oracle["delivered"]
    benchmark.extra_info.update(
        {
            "fig9_total_messages": sum(vectorised["totals"].values()),
            "fig9_seconds_vectorised": round(vectorised["seconds"], 4),
        }
    )
