"""Per-broker metric registries and network scoping: nothing is process-wide."""

from itertools import zip_longest

import pytest

from repro.broker.base import Broker
from repro.broker.network import PubSubNetwork
from repro.experiments import fig5_relocation
from repro.experiments.backends import Backend
from repro.filters.filter import Filter
from repro.routing.strategies import make_strategy
from repro.sim.engine import Simulator
from repro.telemetry import RingBufferSink, TelemetryConfig
from repro.telemetry.registry import Histogram, MetricRegistry
from repro.topology.builders import balanced_tree_topology, line_topology


def _run_workload(network, publishes=5, tag="news"):
    producer = network.add_client("P", "B3")
    producer.advertise({"topic": tag})
    consumer = network.add_client("C", "B1")
    # Two attributes so a match needs both predicates counted.
    consumer.subscribe({"topic": tag, "grade": "a"})
    network.settle()
    for index in range(publishes):
        producer.publish({"topic": tag, "grade": "a", "seq": index})
    network.settle()
    return consumer


class TestHistogram:
    def test_buckets_and_summary_fields(self):
        histogram = Histogram(bounds=(1, 5, 10))
        for value in (0, 1, 2, 7, 50):
            histogram.observe(value)
        snapshot = histogram.snapshot()
        assert snapshot["bucket_counts"] == [2, 1, 1, 1]
        assert snapshot["count"] == 5
        assert snapshot["sum"] == 60
        assert snapshot["max"] == 50
        histogram.reset()
        assert histogram.count == 0
        assert histogram.bucket_counts == [0, 0, 0, 0]


class TestMetricRegistry:
    def test_counters_gauges_histograms(self):
        registry = MetricRegistry("B")
        registry.inc("things")
        registry.inc("things", 2)
        registry.set_gauge("depth", 3)
        registry.set_gauge("depth", 1)
        registry.observe("fanout", 4)
        assert registry.counters["things"] == 3
        assert registry.gauge_snapshot() == {"depth": {"last": 1, "high": 3}}
        assert registry.histogram_snapshot()["fanout"]["count"] == 1

    def test_queue_depth_probe_feeds_gauge_and_histogram(self):
        registry = MetricRegistry("B")
        probe = registry.queue_depth_probe("B->C")
        probe(2)
        probe(5)
        probe(1)
        assert registry.gauge_snapshot()["queue_depth:B->C"] == {
            "last": 1,
            "high": 5,
        }
        assert registry.histogram_snapshot()["link_queue_depth"]["count"] == 3


# ---------------------------------------------------------------------------
# Two networks in one process share nothing
# ---------------------------------------------------------------------------

WINDOWS = [("l0", "l1"), ("l1", "l2"), ("l2", "l3"), ("l0", "l1", "l2"), ("l3",)]


def _scripted_run(network):
    """Subscribe, publish, relocate, publish, unsubscribe; yields between steps."""
    leaves = network.graph.leaves()
    producer = network.add_client("producer", leaves[0])
    producer.advertise({"service": "parking"})
    network.settle()
    yield
    subscribers = []
    for index, window in enumerate(WINDOWS):
        client = network.add_client("c{}".format(index), leaves[1 + index % 3])
        # Windows differing in the location only: perfect merges too.
        subscription = client.subscribe({"service": "parking", "location": ("in", window)})
        subscribers.append((client, subscription))
        yield
    network.settle()
    yield
    for round_ in range(2):
        for index in range(8):
            location = "l{}".format(index % 4)
            producer.publish({"service": "parking", "location": location, "index": index})
        network.settle()
        yield
        if round_ == 0:
            for index, (client, _) in enumerate(subscribers[:3]):
                client.move_to(network.broker(leaves[(index + 2) % 4]))
                yield
            network.settle()
            yield
    client, subscription = subscribers[-1]
    client.unsubscribe(subscription)
    network.settle()


def _observe(network):
    """Everything a network computed and counted."""
    caches = network.filter_caches
    return {
        "breakdown": network.data_plane_breakdown(),
        "covering_cache": caches.covering.stats(),
        "pair_cache": caches.merge_pairs.stats(),
        "tables": {
            name: [
                (row.destination, row.filter.key(), sorted(row.subjects))
                for row in broker.subscription_table.entries()
            ]
            for name, broker in sorted(network.brokers.items())
        },
        "deliveries": {
            client_id: [
                (record.time, record.subscription_id, record.identity)
                for record in network.trace.deliveries_for(client_id)
            ]
            for client_id in sorted(network.clients)
        },
        "link_messages": network.total_messages(),
    }


def _assert_merges_count_covering_misses(caches):
    """Covering questions asked inside a merge are the caches' own covering misses."""
    narrow = Filter({"service": "parking", "location": "x"})
    wide = Filter({"service": "parking", "location": ("in", ("x", "y"))})
    misses = caches.covering.misses
    assert caches.merge_pairs(narrow, wide) == wide
    assert caches.covering.misses == misses + 2
    # The reverse pair is a new merge, but its covering test hits.
    assert caches.merge_pairs(wide, narrow) == wide
    assert caches.covering.misses == misses + 2


def _network(strategy):
    return PubSubNetwork(balanced_tree_topology(depth=2, fanout=2), strategy=strategy, latency=0.01)


class TestPerNetworkScoping:
    @pytest.mark.parametrize("strategy", ["covering", "merging"])
    def test_two_networks_in_one_process_share_nothing(self, strategy):
        """Two identical networks driven step by step in turn each compute
        and count exactly what the same script computes alone: no covering
        or merge result, counter or routing decision crosses over."""
        solo = _network(strategy)
        for _ in _scripted_run(solo):
            pass
        expected = _observe(solo)
        assert expected["covering_cache"]["misses"] > 0
        assert expected["breakdown"]["dispatch_matches"] > 0
        if strategy == "merging":
            assert expected["pair_cache"]["misses"] > 0

        first, second = _network(strategy), _network(strategy)
        for _ in zip_longest(_scripted_run(first), _scripted_run(second)):
            pass
        assert _observe(first) == expected
        assert _observe(second) == expected

    def test_brokers_of_one_network_share_its_filter_caches(self):
        network = PubSubNetwork(line_topology(3), strategy="merging", latency=0.01)
        caches = network.filter_caches
        assert all(broker.filter_caches is caches for broker in network.brokers.values())
        _assert_merges_count_covering_misses(caches)
        other = PubSubNetwork(line_topology(3), strategy="merging", latency=0.01)
        assert other.filter_caches is not caches

    def test_a_broker_built_alone_gets_filter_caches_of_its_own(self):
        clock = Simulator()
        first = Broker("B1", clock, make_strategy("covering"))
        second = Broker("B2", clock, make_strategy("covering"))
        assert first.filter_caches is not second.filter_caches
        _assert_merges_count_covering_misses(first.filter_caches)
        assert second.filter_caches.covering.misses == 0

    def test_two_concurrent_networks_do_not_bleed(self):
        """Regression: two live PubSubNetworks used to share one process-
        global stats object, so the second network's matching work
        polluted the first's breakdown.  The per-broker registries make
        ``network.data_plane_breakdown()`` attributable per network."""
        network_a = PubSubNetwork(line_topology(3), strategy="covering", latency=0.01)
        network_b = PubSubNetwork(line_topology(3), strategy="covering", latency=0.01)

        _run_workload(network_a, publishes=4)
        breakdown_a = network_a.data_plane_breakdown()
        assert breakdown_a["dispatch_matches"] > 0

        # Work on network B must leave A's scoped numbers untouched.
        _run_workload(network_b, publishes=9)
        assert network_a.data_plane_breakdown() == breakdown_a
        breakdown_b = network_b.data_plane_breakdown()
        assert breakdown_b["dispatch_matches"] > breakdown_a["dispatch_matches"]

    def test_telemetry_stays_with_its_network(self):
        """A telemetry config reaches only the network, or the experiment,
        it is handed to: a network built after a traced one runs dark."""
        traced = PubSubNetwork(line_topology(3), telemetry=TelemetryConfig(RingBufferSink))
        dark = PubSubNetwork(line_topology(3))
        assert traced.telemetry_sink is not None
        assert all(broker._telemetry is not None for broker in traced.brokers.values())
        assert dark.telemetry_sink is None
        assert all(broker._telemetry is None for broker in dark.brokers.values())
        assert all(link.depth_probe is None for link in dark.links.values())
        traced.close()
        dark.close()

        sink = RingBufferSink()
        fig5_relocation.run(backend=Backend("sim", telemetry=TelemetryConfig(lambda: sink)))
        filled = sink.emitted
        assert filled > 0
        fig5_relocation.run(backend=Backend())
        assert sink.emitted == filled

    def test_broker_counter_snapshot_reconciles_with_breakdown(self):
        network = PubSubNetwork(line_topology(3), strategy="covering", latency=0.01)
        consumer = _run_workload(network, publishes=6)
        assert len(consumer.received) == 6

        scoped = network.data_plane_breakdown()
        assert scoped["dispatch_matches"] > 0
        snapshots = [broker.metrics.counter_snapshot() for broker in network.brokers.values()]
        for key in ("constraint_evals", "dispatch_matches"):
            assert scoped[key] == sum(snapshot[key] for snapshot in snapshots)
        delivered = sum(snapshot["notifications_delivered"] for snapshot in snapshots)
        assert delivered == 6
