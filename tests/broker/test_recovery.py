"""Broker crash/restart recovery: store, oracle equivalence, durable subscriptions.

The centrepiece is the seeded crash-oracle battery: a deterministic
workload is run twice — once uninterrupted (the oracle), once with a
broker crash + restart injected at a quiescent step — and the recovered
routing tables must be *byte-identical* (via
:func:`repro.broker.recovery.encode_table`) to the oracle's, with no
durable subscriber permanently losing a matching notification.
"""

import pytest

from repro.broker.base import BrokerConfig
from repro.broker.network import PubSubNetwork
from repro.broker.recovery import RecoveryStore, ReplaySink, encode_table
from repro.core.adaptivity import UncertaintyPlan
from repro.core.location_filter import MYLOC
from repro.core.ploc import MovementGraph
from repro.filters.filter import Filter
from repro.messages.admin import Subscribe
from repro.messages.mobility import RelocationComplete, Replay
from repro.messages.notification import Notification
from repro.metrics.counters import delivery_dedup_breakdown
from repro.metrics.qos import check_completeness, check_no_duplicates
from repro.sim.rng import DeterministicRandom
from repro.topology.builders import balanced_tree_topology, line_topology


# ----------------------------------------------------------------------
# RecoveryStore unit behaviour
# ----------------------------------------------------------------------
class TestRecoveryStore:
    def test_log_index_counts_appended_records(self):
        store = RecoveryStore("B1")
        assert store.log_index == 0
        store.append("client", Subscribe(Filter({"topic": "news"}), subject="client/s1"), 1.0)
        store.append("client", Subscribe(Filter({"topic": "misc"}), subject="client/s2"), 2.0)
        assert store.log_index == 2
        tail = store.log_tail()
        assert [record.sequence for record in tail] == [1, 2]
        assert [record.origin for record in tail] == ["client", "client"]
        assert store.stored_bytes() > 0

    def test_snapshot_truncates_covered_log_records(self):
        network = PubSubNetwork(line_topology(2), latency=0.05)
        network.enable_recovery("B1")
        broker = network.broker("B1")
        client = network.add_client("client", "B1")
        client.subscribe({"topic": "news"}, subscription_id="s1")
        network.settle()
        assert broker.recovery.log_size() == 1
        broker.reliability.take_snapshot()
        assert broker.recovery.log_size() == 0
        client.subscribe({"topic": "misc"}, subscription_id="s2")
        network.settle()
        assert broker.recovery.log_size() == 1
        snapshot = broker.recovery.snapshot()
        assert snapshot is not None and snapshot.log_index == 1

    def test_replay_sink_swallows_sends(self):
        sink = ReplaySink("B1", "B2")
        sink.send(Subscribe(Filter({"topic": "news"}), subject="x"))
        assert sink.suppressed_count == 1


# ----------------------------------------------------------------------
# Crash / restart lifecycle
# ----------------------------------------------------------------------
class TestCrashLifecycle:
    def _network(self):
        network = PubSubNetwork(line_topology(3), latency=0.05)
        network.enable_recovery()
        producer = network.add_client("producer", "B3")
        producer.advertise({"topic": "news"})
        consumer = network.add_client("consumer", "B1")
        consumer.subscribe({"topic": "news"}, subscription_id="s1", durable=True)
        network.settle()
        return network, producer, consumer

    def test_crash_requires_recovery_enabled_only_for_restart(self):
        network, producer, consumer = self._network()
        broker = network.broker("B2")
        with pytest.raises(ValueError):
            broker.restart()
        broker.crash()
        assert broker.is_crashed
        with pytest.raises(ValueError):
            broker.crash()

    def test_crash_builds_every_component_anew_but_keeps_the_store(self):
        config = BrokerConfig(forward_retention=8)
        network = PubSubNetwork(line_topology(3), latency=0.05, config=config)
        network.enable_recovery()
        broker = network.broker("B2")
        store = broker.recovery
        network.add_client("far", "B1").subscribe({"service": "parking"})
        local = network.add_client("local", "B2")
        local.advertise({"service": "parking"})
        roamer = network.add_client("roamer", "B2")
        roamer.subscribe({"service": "parking"})
        network.add_client("car", "B2").subscribe_location_dependent(
            {"service": "parking", "location": MYLOC},
            movement_graph=MovementGraph.paper_example(),
            plan=UncertaintyPlan.static(2),
            initial_location="a",
        )
        network.settle()
        roamer.detach()
        network.broker("B1").reliability.emit_heartbeats()
        network.settle()
        local.publish({"service": "parking", "location": "a"})  # B1 has not acked it yet
        held = (
            broker.physical.counterparts,
            broker.logical.states,
            broker.reliability.retained_forwards("B1"),
            broker.reliability.heartbeat_last_heard,
        )
        assert all(held)
        broker.crash()
        assert not broker.physical.counterparts
        assert not broker.logical.states
        assert broker.reliability.retained_forwards("B1") == []
        assert broker.reliability.heartbeat_last_heard == {}
        assert broker.recovery is store

    def test_messages_to_a_crashed_broker_are_dropped_and_attributed(self):
        network, producer, consumer = self._network()
        network.crash_broker("B2")
        producer.publish({"topic": "news", "n": 1})
        network.settle()
        assert consumer.received == []
        broker = network.broker("B2")
        assert broker.counters["messages_dropped_down"] == 1
        drops = network.trace.drops(reason="broker-down")
        assert [record.target for record in drops] == ["B2"]

    def test_restart_replays_journal_and_resumes_delivery(self):
        network, producer, consumer = self._network()
        broker = network.broker("B2")
        producer.publish({"topic": "news", "n": 0})
        network.settle()
        matched_before_crash = broker.metrics.dispatch.matches
        before = encode_table(broker.subscription_table), encode_table(broker.advertisement_table)
        network.crash_broker("B2")
        replayed = network.restart_broker("B2")
        assert replayed > 0
        assert broker.counters["recovery_log_replayed"] == replayed
        after = encode_table(broker.subscription_table), encode_table(broker.advertisement_table)
        assert after == before
        producer.publish({"topic": "news", "n": 1})
        network.settle()
        assert [record.sequence for record in consumer.received] == [1, 2]
        # The dispatch plan the crash rebuilt counts in the broker's same
        # registry sink: the counters keep accumulating.
        assert broker.metrics.dispatch.matches == matched_before_crash + 1 == 2

    def test_restart_from_snapshot_skips_covered_records(self):
        network, producer, consumer = self._network()
        broker = network.broker("B2")
        network.snapshot_broker("B2")
        network.crash_broker("B2")
        assert network.restart_broker("B2") == 0
        producer.publish({"topic": "news", "n": 1})
        network.settle()
        assert len(consumer.received) == 1


# ----------------------------------------------------------------------
# Durable subscriptions: failover, duplicate suppression, gap counters
# ----------------------------------------------------------------------
class TestDurableSubscriptions:
    def test_duplicate_sequences_are_suppressed_for_durable_subscriptions(self):
        from repro.broker.client import Client

        client = Client("c")
        client.subscribe({"topic": "news"}, subscription_id="s1", durable=True)
        note = Notification({"topic": "news"}, publisher="p", publisher_seq=1)
        client.deliver("s1", note, 1)
        client.deliver("s1", note, 1)
        assert len(client.received) == 1
        assert client.counters["duplicates_suppressed"] == 1
        assert delivery_dedup_breakdown([client])["duplicates_suppressed"] == 1

    def test_sequence_gaps_are_counted_but_still_delivered(self):
        from repro.broker.client import Client

        client = Client("c")
        client.subscribe({"topic": "news"}, subscription_id="s1", durable=True)
        note = Notification({"topic": "news"}, publisher="p", publisher_seq=1)
        client.deliver("s1", note, 1)
        client.deliver("s1", note, 3)
        assert [record.sequence for record in client.received] == [1, 3]
        assert client.counters["gaps_detected"] == 1

    def test_plain_subscriptions_keep_at_most_once_passthrough(self):
        """The naive-roaming baseline depends on observable duplicates."""
        from repro.broker.client import Client

        client = Client("c")
        client.subscribe({"topic": "news"}, subscription_id="s1")
        note = Notification({"topic": "news"}, publisher="p", publisher_seq=1)
        client.deliver("s1", note, 1)
        client.deliver("s1", note, 1)
        assert len(client.received) == 2
        assert client.counters["duplicates_suppressed"] == 0

    def test_failover_adopts_durable_subscription_with_sequence_continuity(self):
        network = PubSubNetwork(line_topology(3), latency=0.05)
        network.enable_recovery()
        producer = network.add_client("producer", "B3")
        producer.advertise({"topic": "news"})
        consumer = network.add_client("consumer", "B1")
        consumer.subscribe({"topic": "news"}, subscription_id="s1", durable=True)
        network.settle()
        producer.publish({"topic": "news", "n": 1})
        network.settle()

        assert network.crash_broker("B1", takeover="B2") == 1
        network.settle()
        assert consumer.border_broker is network.broker("B2")
        producer.publish({"topic": "news", "n": 2})
        network.settle()
        assert [record.sequence for record in consumer.received] == [1, 2]
        assert check_no_duplicates(network.trace, "consumer").clean

        takeover = network.broker("B2").physical.relocation_records[-1]
        assert takeover.old_border == "B1"
        assert takeover.new_border == "B2"
        assert takeover.replayed == 0

    def test_rehome_after_restart_reuses_relocation_machinery(self):
        network = PubSubNetwork(line_topology(3), latency=0.05)
        network.enable_recovery()
        producer = network.add_client("producer", "B3")
        producer.advertise({"topic": "news"})
        consumer = network.add_client("consumer", "B1")
        consumer.subscribe({"topic": "news"}, subscription_id="s1", durable=True)
        network.settle()
        network.crash_broker("B1", takeover="B2")
        network.settle()
        producer.publish({"topic": "news", "n": 1})
        network.settle()
        network.restart_broker("B1")
        network.settle()
        consumer.move_to(network.broker("B1"))
        network.settle()
        producer.publish({"topic": "news", "n": 2})
        network.settle()
        assert [record.sequence for record in consumer.received] == [1, 2]
        rehome = network.broker("B1").physical.relocation_records[-1]
        assert rehome.old_border == "B2"
        assert not network.broker("B2").physical.counterparts


# ----------------------------------------------------------------------
# Seeded crash oracle
# ----------------------------------------------------------------------
def _run_workload(crash_at=None, snapshot_at=None, seed=5, steps=12):
    """A deterministic mixed workload; optionally crash/restart B2 mid-way.

    The crash is injected at a quiescent step boundary (the network is
    settled before every step), so a correct recovery reproduces the
    oracle run exactly.
    """
    rng = DeterministicRandom(seed)
    network = PubSubNetwork(line_topology(4), latency=0.05)
    network.enable_recovery()
    producer = network.add_client("producer", "B4")
    producer.advertise({"topic": "news"})
    producer.advertise({"topic": "sports"}, advertisement_id="sports")
    durable = network.add_client("durable", "B1")
    durable.subscribe({"topic": "news"}, subscription_id="d", durable=True)
    roamer = network.add_client("roamer", "B3")
    roamer.subscribe({"topic": "news"}, subscription_id="r")
    network.settle()

    extra_subscribed = False
    for step in range(steps):
        if snapshot_at is not None and step == snapshot_at:
            network.snapshot_broker("B2")
        if crash_at is not None and step == crash_at:
            network.crash_broker("B2")
            network.restart_broker("B2")
        draw = rng.random()
        if draw < 0.5:
            producer.publish({"topic": "news", "step": step})
        elif draw < 0.7:
            target = "B1" if roamer.border_broker.name == "B3" else "B3"
            roamer.move_to(network.broker(target))
        else:
            if extra_subscribed:
                durable.unsubscribe("extra")
            else:
                durable.subscribe({"topic": "sports"}, subscription_id="extra")
            extra_subscribed = not extra_subscribed
        network.settle()
    return network, durable, roamer


def _table_fingerprints(network):
    return {
        name: (encode_table(broker.subscription_table), encode_table(broker.advertisement_table))
        for name, broker in network.brokers.items()
    }


def _deliveries(client):
    return [(record.subscription_id, record.sequence, dict(record.notification.attributes))
            for record in client.received]


class TestCrashOracle:
    @pytest.mark.parametrize("seed", [5, 23, 91])
    def test_recovered_run_matches_never_crashed_oracle(self, seed):
        oracle_net, oracle_durable, oracle_roamer = _run_workload(seed=seed)
        crashed_net, crashed_durable, crashed_roamer = _run_workload(seed=seed, crash_at=6)

        assert _table_fingerprints(crashed_net) == _table_fingerprints(oracle_net)
        assert _deliveries(crashed_durable) == _deliveries(oracle_durable)
        assert _deliveries(crashed_roamer) == _deliveries(oracle_roamer)
        assert crashed_net.broker("B2").counters["recovery_log_replayed"] > 0

    @pytest.mark.parametrize("seed", [5, 23])
    def test_snapshot_plus_tail_matches_oracle(self, seed):
        oracle_net, oracle_durable, _ = _run_workload(seed=seed)
        crashed_net, crashed_durable, _ = _run_workload(seed=seed, crash_at=8, snapshot_at=4)

        assert _table_fingerprints(crashed_net) == _table_fingerprints(oracle_net)
        assert _deliveries(crashed_durable) == _deliveries(oracle_durable)

    def test_no_durable_notification_is_permanently_lost(self):
        network, durable, _ = _run_workload(crash_at=6, snapshot_at=3)
        report = check_completeness(network.trace, "durable", Filter({"topic": "news"}))
        assert report.complete
        assert durable.counters["gaps_detected"] == 0


def _handovers(crash_every_broker):
    """Roamers hop between leaves of a tree; optionally crash + restart everyone."""
    topology = balanced_tree_topology(depth=2, fanout=2)
    network = PubSubNetwork(topology, latency=0.02)
    network.enable_recovery()
    leaves = topology.leaves()
    producer = network.add_client("producer", leaves[0])
    producer.advertise({"topic": "news"})
    roamers = [network.add_client("r{}".format(index), leaves[1 + index]) for index in range(3)]
    for roamer in roamers:
        roamer.subscribe({"topic": "news"}, subscription_id="s")
    network.settle()
    for round_ in range(2):
        for index, roamer in enumerate(roamers):
            roamer.detach()
            producer.publish({"topic": "news", "round": round_})
            network.settle()
            roamer.move_to(network.broker(leaves[1 + (index + round_ + 1) % 3]))
            network.settle()
    if crash_every_broker:
        for name in network.brokers:
            network.crash_broker(name)
            network.restart_broker(name)
    return network


def test_relocation_traffic_is_not_journaled():
    """Replay / RelocationComplete change no routing state, so no log holds them.

    Restarting every broker on the relocation paths from its log must still
    give the tables of a twin that never crashed.
    """
    twin = _handovers(crash_every_broker=False)
    relayed = [record.message_type for record in twin.trace.link_records]
    assert relayed.count("Replay") > 0 and relayed.count("RelocationComplete") > 0
    for broker in twin.brokers.values():
        entries = [type(record.entry) for record in broker.recovery.log_tail()]
        assert Replay not in entries and RelocationComplete not in entries
    assert _table_fingerprints(_handovers(crash_every_broker=True)) == _table_fingerprints(twin)
