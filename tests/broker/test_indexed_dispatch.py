"""The dispatch plan against its specification on a churning network.

Every broker matches notifications and gates subscription forwarding
through its ``DispatchPlan``.  On identical workloads the plan must be
indistinguishable from the brute-force specification in
``tests/oracles/matching.py``: byte-identical deliveries, admin traffic,
routing tables and forwarded sets.  Four ways of running the same
schedule are compared:

* ``incremental`` — the production path, plan maintained from row deltas;
* ``rebuild`` — every broker's plan is invalidated after each settle, so
  the lazy rebuild path is exercised as heavily as delta maintenance;
* ``unmemoised`` — forwarding refreshed from its own specification
  (``tests/oracles/forwarding.py``), which sends every advertisement-gate
  query of a refresh to the plan instead of the per-neighbour memo;
* ``oracle`` — both plan queries answered by the specification.
"""

import pytest

from repro.broker.base import Broker, BrokerConfig
from repro.broker.network import PubSubNetwork
from repro.filters.filter import Filter
from repro.messages.notification import Notification
from repro.metrics.counters import MessageCounter
from repro.routing.strategies import make_strategy
from repro.runtime.latency import FixedLatency
from repro.sim.engine import Simulator
from repro.sim.network import Link
from repro.sim.rng import DeterministicRandom
from repro.telemetry.registry import data_plane_breakdown
from repro.topology.builders import balanced_tree_topology

from tests.oracles.forwarding import move_attached, scratch_forwarding
from tests.oracles.matching import oracle_dispatch

LOCATIONS = ["loc-{:02d}".format(index) for index in range(12)]


def _invalidate_plans(network):
    for broker in network.brokers.values():
        broker._dispatch_plan.invalidate()


def _window(rng):
    span = rng.randint(1, 4)
    start = rng.randint(0, len(LOCATIONS) - span)
    return {"service": "parking", "location": ("in", LOCATIONS[start : start + span])}


def _run_churn(mode, seed, strategy="covering"):
    topology = balanced_tree_topology(depth=2, fanout=3)
    network = PubSubNetwork(topology, strategy=strategy, latency=0.01)
    leaves = topology.leaves()
    rng = DeterministicRandom(seed)

    producers = []
    for index, leaf in enumerate(leaves[:2]):
        producer = network.add_client("p{}".format(index), leaf)
        producer.advertise({"service": "parking"})
        producers.append(producer)
    network.settle()

    clients = []
    subscriptions = {}
    for index in range(8):
        client = network.add_client("c{}".format(index), rng.choice(leaves))
        subscriptions[client.client_id] = [client.subscribe(_window(rng))]
        clients.append(client)
    network.settle()
    if mode == "rebuild":
        _invalidate_plans(network)

    advert_ids = {}
    for _ in range(60):
        action = rng.choice(
            ["publish", "publish", "publish", "subscribe", "unsubscribe", "move", "advertise"]
        )
        client = rng.choice(clients)
        if action == "publish":
            rng.choice(producers).publish(
                {
                    "service": "parking",
                    "location": rng.choice(LOCATIONS),
                    "cost": rng.randint(0, 5),
                    "seq": rng.randint(0, 10_000),
                }
            )
        elif action == "subscribe":
            subscriptions[client.client_id].append(client.subscribe(_window(rng)))
        elif action == "unsubscribe":
            ids = subscriptions[client.client_id]
            if ids:
                client.unsubscribe(ids.pop(rng.randint(0, len(ids) - 1)))
        elif action == "move":
            move_attached(client, network.broker(rng.choice(leaves)))
        else:
            producer = rng.choice(producers)
            existing = advert_ids.pop(producer.client_id, None)
            if existing is not None:
                producer.unadvertise(existing)
            else:
                advert_ids[producer.client_id] = producer.advertise(
                    {"service": "parking", "location": ("in", rng.sample(LOCATIONS, 3))}
                )
        network.settle()
        if mode == "rebuild":
            _invalidate_plans(network)

    counter = MessageCounter(network.trace)
    breakdown = counter.breakdown()
    forwarded = {
        name: {
            neighbour: sorted(map(repr, state.forwarded))
            for neighbour, state in broker.forwarding.states.items()
        }
        for name, broker in network.brokers.items()
    }
    deliveries = [
        (record.time, record.client_id, record.subscription_id, record.identity, record.sequence)
        for record in network.trace.delivery_records
    ]
    return {
        "admin": breakdown.admin,
        "notifications": breakdown.notifications,
        "mobility": breakdown.mobility,
        "tables": network.routing_table_sizes(),
        "forwarded": forwarded,
        "received": {c.client_id: c.received_identities() for c in clients},
        "deliveries": deliveries,
    }


@pytest.mark.parametrize("strategy", ["covering", "merging", "flooding"])
@pytest.mark.parametrize("seed", [3, 19])
def test_four_mode_churn_equivalence(strategy, seed):
    """Incremental, rebuilt and unmemoised plans leave what the oracle leaves."""
    with oracle_dispatch():
        oracle = _run_churn("oracle", seed, strategy)
    for mode in ("incremental", "rebuild"):
        assert _run_churn(mode, seed, strategy) == oracle, mode
    with scratch_forwarding():
        assert _run_churn("unmemoised", seed, strategy) == oracle


def test_indexed_dispatch_skips_table_matching(monkeypatch):
    """The hot path must not evaluate table filters one by one."""
    simulator = Simulator()
    broker = Broker("B", simulator, make_strategy("covering"), config=BrokerConfig())
    sink = []
    broker.add_link(
        Link(simulator, "B", "N1", lambda message, link: sink.append(message), FixedLatency(0.0))
    )
    for floor in range(20):
        broker.subscription_table.add(Filter({"service": "parking", "floor": floor}), "N1", "s")
    evaluated = []
    whole_filter = Filter.matches

    def counted(filter_, attributes):
        evaluated.append(filter_)
        return whole_filter(filter_, attributes)

    monkeypatch.setattr(Filter, "matches", counted)
    broker._handle_notification(
        Notification({"service": "parking", "floor": 3}, "p", 1), from_destination="c1"
    )
    stats = data_plane_breakdown([broker])
    assert stats["dispatch_matches"] == 1
    assert evaluated == []
    assert stats["constraint_evals"] == 0
    assert broker.counters["notifications_forwarded"] == 1


def test_advert_gate_counters_account_hits_and_misses():
    simulator = Simulator()
    broker = Broker("B", simulator, make_strategy("covering"), config=BrokerConfig())
    sink = []
    broker.add_link(
        Link(simulator, "B", "N1", lambda message, link: sink.append(message), FixedLatency(0.0))
    )
    broker.advertisement_table.add(Filter({"service": "parking"}), "N1", "a1")
    filter_ = Filter({"service": "parking", "location": "a"})
    assert broker.forwarding.may_forward("N1", filter_) is True
    assert broker.counters["advert_gate_misses"] == 1
    assert broker.forwarding.may_forward("N1", filter_) is True
    assert broker.counters["advert_gate_hits"] == 1
