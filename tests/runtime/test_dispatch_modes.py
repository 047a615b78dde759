"""Dispatch-plan trace identity with the oracle on every runtime backend.

The compiled data plane (bitset matching, shared-predicate skipping,
cross-notification batching) must be invisible in every observable: on
each backend — sim, virtual-time asyncio over memory pipes, and over
loopback TCP — running on the delta-maintained plan, on a plan rebuilt
from the tables before every round, and on the brute-force specification
of ``tests/oracles/matching.py`` must produce **byte-identical traces**,
timestamps included: the same deliveries in the same order, the same
link traversals (admin messages included), the same drops and publishes.
The workload mixes identical-attribute bursts (exercising the batched-run
reuse on the sim backend) with varied publishes and subscription churn
(exercising the dirty-bucket recompiles) so every stage of the plan is
on trial.
"""

import pytest

from repro.broker.network import PubSubNetwork
from repro.runtime.factory import BACKENDS, make_runtime
from repro.sim.rng import DeterministicRandom
from repro.topology.builders import balanced_tree_topology

from tests.oracles.matching import oracle_dispatch
from tests.runtime.test_backend_parity import _trace_fingerprint


def _run_workload(backend, rebuild=False):
    network = PubSubNetwork(
        balanced_tree_topology(depth=2, fanout=2),
        strategy="covering",
        runtime=make_runtime(backend, latency=0.01),
    )
    leaves = network.graph.leaves()
    rng = DeterministicRandom(29)
    producer = network.add_client("producer", leaves[0])
    producer.advertise({"service": "parking"})
    clients = []
    subscriptions = []
    # Enough sharers of the ``service == parking`` predicate to form a
    # hot set, with overlapping secondary constraints.
    for index in range(12):
        client = network.add_client("c{}".format(index), leaves[index % len(leaves)])
        subscriptions.append(
            (client, client.subscribe({"service": "parking", "floor": ("<", 1 + index % 5)}))
        )
        clients.append(client)
    network.settle()

    for round_ in range(6):
        if rebuild:
            for broker in network.brokers.values():
                broker._dispatch_plan.rebuild()
        # An identical-attribute burst at one instant: every broker
        # answers the repeats from the dispatch plan's last match.
        for _ in range(3):
            producer.publish({"service": "parking", "floor": round_ % 5})
        # Plus varied publishes that the last match does not cover.
        producer.publish(
            {"service": "parking", "floor": rng.randint(0, 6), "seq": rng.randint(0, 999)}
        )
        network.settle()
        # Churn between bursts: the matcher must recompile exactly the
        # dirtied predicate buckets, with no observable difference from
        # the specification.
        client, subscription_id = subscriptions[round_ % len(subscriptions)]
        client.unsubscribe(subscription_id)
        subscriptions[round_ % len(subscriptions)] = (
            client,
            client.subscribe({"service": "parking", "floor": ("<", 2 + round_ % 4)}),
        )
        network.settle()

    fingerprint = _trace_fingerprint(network.trace)
    received = {c.client_id: c.received_identities() for c in clients}
    tables = network.routing_table_sizes()
    network.close()
    return fingerprint, received, tables


@pytest.mark.parametrize("backend", BACKENDS)
def test_three_mode_trace_identity(backend):
    """Delta-maintained plan, rebuilt plan and oracle leave byte-identical traces."""
    try:
        with oracle_dispatch():
            oracle = _run_workload(backend)
    except OSError as error:  # pragma: no cover - sandboxed environments
        pytest.skip("loopback sockets unavailable: {}".format(error))
    for rebuild in (False, True):
        production = _run_workload(backend, rebuild=rebuild)
        for observable in ("deliveries", "links", "drops", "publishes"):
            assert production[0][observable] == oracle[0][observable], (backend, rebuild)
        assert production[1:] == oracle[1:], (backend, rebuild)
