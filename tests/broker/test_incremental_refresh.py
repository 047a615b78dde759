"""The delta-maintained forwarding refresh against its specification.

Per-neighbour forwarding states fed by routing-table row deltas, the
covering cache and the advertisement-overlap memo are pure optimisation:
under any sequence of subscribes, unsubscribes and physical relocations
the production refresh must emit the same administrative messages, build
the same routing tables, forward the same (filter, subject) pairs and
deliver the same notifications as the from-scratch specification in
``tests/oracles/forwarding.py``.
"""

import pytest

from repro.broker.forwarding import NeighbourForwardingState
from repro.broker.network import PubSubNetwork
from repro.metrics.counters import MessageCounter
from repro.sim.rng import DeterministicRandom
from repro.topology.builders import balanced_tree_topology, line_topology

from tests.oracles.forwarding import (
    DEFINITIONS,
    desired_forwarding,
    move_attached,
    scratch_forwarding,
)

LOCATIONS = ["loc-{}".format(index) for index in range(8)]


def _snapshot(network, clients):
    counter = MessageCounter(network.trace)
    breakdown = counter.breakdown()
    forwarded = {
        name: {
            neighbour: sorted(map(repr, state.forwarded))
            for neighbour, state in broker.forwarding.states.items()
        }
        for name, broker in network.brokers.items()
    }
    return {
        "admin": breakdown.admin,
        "notifications": breakdown.notifications,
        "tables": network.routing_table_sizes(),
        "forwarded": forwarded,
        "received": {c.client_id: c.received_identities() for c in clients},
    }


def _random_churn(seed: int, strategy: str):
    topology = balanced_tree_topology(depth=2, fanout=2)
    network = PubSubNetwork(topology, strategy=strategy, latency=0.01)
    leaves = topology.leaves()
    producer = network.add_client("producer", leaves[0])
    producer.advertise({"service": "parking"})
    network.settle()

    rng = DeterministicRandom(seed)
    clients = []
    for index in range(8):
        client = network.add_client("c{}".format(index), rng.choice(leaves[1:]))
        clients.append(client)
    subscriptions = {client.client_id: [] for client in clients}

    for _ in range(40):
        action = rng.choice(["subscribe", "subscribe", "unsubscribe", "move", "publish"])
        client = rng.choice(clients)
        if action == "subscribe":
            span = rng.randint(1, 3)
            start = rng.randint(0, len(LOCATIONS) - span)
            subscription_id = client.subscribe(
                {"service": "parking", "location": ("in", LOCATIONS[start : start + span])}
            )
            subscriptions[client.client_id].append(subscription_id)
        elif action == "unsubscribe" and subscriptions[client.client_id]:
            subscription_id = subscriptions[client.client_id].pop(
                rng.randint(0, len(subscriptions[client.client_id]) - 1)
            )
            client.unsubscribe(subscription_id)
        elif action == "move":
            move_attached(client, network.broker(rng.choice(leaves)))
        elif action == "publish":
            producer.publish(
                {
                    "service": "parking",
                    "location": rng.choice(LOCATIONS),
                    "seq": rng.randint(0, 10_000),
                }
            )
        network.settle()
    return _snapshot(network, clients)


@pytest.mark.parametrize("strategy", sorted(DEFINITIONS))
@pytest.mark.parametrize("seed", [3, 17, 99])
def test_randomized_churn_equivalence(strategy, seed):
    """The production refresh is behaviourally identical to the specification."""
    with scratch_forwarding():
        scratch = _random_churn(seed, strategy)
    assert _random_churn(seed, strategy) == scratch


def _settled_line():
    network = PubSubNetwork(line_topology(3), strategy="covering", latency=0.01)
    producer = network.add_client("P", "B1")
    producer.advertise({"topic": "news"})
    consumer = network.add_client("C", "B3")
    consumer.subscribe({"topic": "news"})
    network.settle()
    middle = network.broker("B2")
    # Flush whatever refresh exclusions left pending.
    middle.forwarding.refresh_all()
    return network, middle


def test_clean_neighbours_are_skipped(monkeypatch):
    """A refresh with nothing pending sends nothing, scans no table, diffs nothing."""
    network, middle = _settled_line()
    assert all(state.settled() for state in middle.forwarding.states.values())
    calls = []
    monkeypatch.setattr(middle.subscription_table, "entries", lambda: calls.append("scan"))
    monkeypatch.setattr(NeighbourForwardingState, "diff", lambda *args: calls.append("diff"))
    sent_before = len(network.trace.link_records)
    middle.forwarding.refresh_all()
    assert calls == []
    assert len(network.trace.link_records) == sent_before


def test_table_change_marks_other_neighbours_dirty():
    _, middle = _settled_line()
    (row,) = [row for row in middle.subscription_table.entries() if row.destination == "B3"]
    # A change to rows of destination B3 affects the desired set of every
    # neighbour except B3 itself.
    middle.subscription_table.add(row.filter, "B3", "C/extra")
    assert middle.forwarding.states["B3"].settled()
    assert middle.forwarding.states["B1"].pending == {(row.filter.key(), "C/extra")}


def test_handovers_reconcile_moved_subscribes_without_a_full_diff(monkeypatch):
    """A forwarded MovedSubscribe is reconciled through the pending pairs.

    ``_forward_moved_subscribe`` registers the roamer's own filter at the
    next hop, behind the refresh's back.  Where a wider filter covers it,
    that pair is not desired and the next refresh must withdraw it — by
    looking at that one pair, not by diffing the whole forwarded set.
    """
    topology = balanced_tree_topology(depth=2, fanout=2)
    network = PubSubNetwork(topology, strategy="covering", latency=0.01)
    leaves = topology.leaves()
    producer = network.add_client("producer", leaves[0])
    producer.advertise({"service": "parking"})
    for leaf in leaves[1:]:
        network.add_client("wide-" + leaf, leaf).subscribe({"service": "parking"})
    roamers = [
        network.add_client("r{}".format(index), leaves[1 + index % 3]) for index in range(4)
    ]
    for index, roamer in enumerate(roamers):
        roamer.subscribe({"service": "parking", "location": LOCATIONS[index]})
    network.settle()
    for broker in network.brokers.values():
        broker.forwarding.refresh_all()

    full_diffs = []
    diff = NeighbourForwardingState.diff

    def counted(state):
        full_diffs.append(state.full_diff)
        return diff(state)

    monkeypatch.setattr(NeighbourForwardingState, "diff", counted)
    moves = 0
    for round_ in range(3):
        for index, roamer in enumerate(roamers):
            roamer.detach()
            producer.publish({"service": "parking", "location": LOCATIONS[index]})
            network.settle()
            roamer.move_to(network.broker(leaves[1 + (index + round_ + 1) % 3]))
            network.settle()
            moves += 1
            for broker in network.brokers.values():
                for neighbour, state in broker.forwarding.states.items():
                    desired = desired_forwarding(broker, neighbour)
                    assert state.desired == desired, (broker.name, neighbour)
                    # A refresh that excluded this neighbour may have left it
                    # behind; what it missed must be pending, or the next
                    # refresh, which diffs only those pairs, would keep it.
                    forwarded = broker.forwarding.states[neighbour].forwarded
                    assert forwarded.keys() ^ desired.keys() <= state.pending
    assert sum(broker.counters["replays_sent"] for broker in network.brokers.values()) >= moves
    assert full_diffs and not any(full_diffs)
