"""Per-broker metric registries, the stats facades, and network scoping."""

from repro.broker.network import PubSubNetwork
from repro.dispatch.stats import dispatch_stats
from repro.filters.merging import merge_stats
from repro.filters.stats import matching_stats
from repro.metrics.counters import data_plane_breakdown, reset_data_plane_stats
from repro.telemetry.registry import Histogram, MetricRegistry
from repro.topology.builders import line_topology


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
        try:
            registry.inc("things")
            registry.inc("things", 2)
            registry.set_gauge("depth", 3)
            registry.set_gauge("depth", 1)
            registry.observe("fanout", 4)
            assert registry.counters["things"] == 3
            assert registry.gauge_snapshot() == {"depth": {"last": 1, "high": 3}}
            assert registry.histogram_snapshot()["fanout"]["count"] == 1
        finally:
            registry.close()

    def test_activate_restore_nesting(self):
        outer = MetricRegistry("outer")
        inner = MetricRegistry("inner")
        try:
            saved_outer = outer.activate()
            matching_stats.current.constraint_evals += 1
            saved_inner = inner.activate()
            matching_stats.current.constraint_evals += 10
            MetricRegistry.restore(saved_inner)
            matching_stats.current.constraint_evals += 1
            MetricRegistry.restore(saved_outer)
            assert outer.matching.constraint_evals == 2
            assert inner.matching.constraint_evals == 10
        finally:
            outer.close()
            inner.close()

    def test_queue_depth_probe_feeds_gauge_and_histogram(self):
        registry = MetricRegistry("B")
        try:
            probe = registry.queue_depth_probe("B->C")
            probe(2)
            probe(5)
            probe(1)
            assert registry.gauge_snapshot()["queue_depth:B->C"] == {
                "last": 1,
                "high": 5,
            }
            assert registry.histogram_snapshot()["link_queue_depth"]["count"] == 3
        finally:
            registry.close()


class TestPerNetworkScoping:
    def test_two_concurrent_networks_do_not_bleed(self):
        """Regression: two live PubSubNetworks used to share one process-
        global stats object, so the second network's matching work
        polluted the first's breakdown.  The per-broker registries make
        ``network.data_plane_breakdown()`` attributable per network."""
        reset_data_plane_stats()
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

        # The process-global facade still sums over everything.
        global_breakdown = data_plane_breakdown()
        for key in ("constraint_evals", "filter_matches", "dispatch_matches"):
            assert global_breakdown[key] == breakdown_a[key] + breakdown_b[key]

    def test_broker_counter_snapshot_reconciles_with_breakdown(self):
        reset_data_plane_stats()
        network = PubSubNetwork(line_topology(3), strategy="covering", latency=0.01)
        consumer = _run_workload(network, publishes=6)
        assert len(consumer.received) == 6

        scoped = network.data_plane_breakdown()
        assert scoped["dispatch_matches"] > 0
        snapshots = [broker.metrics.counter_snapshot() for broker in network.brokers.values()]
        for key in ("constraint_evals", "filter_matches", "dispatch_matches"):
            assert scoped[key] == sum(snapshot[key] for snapshot in snapshots)
        delivered = sum(snapshot["notifications_delivered"] for snapshot in snapshots)
        assert delivered == 6


class TestResetUnification:
    def test_reset_data_plane_stats_resets_merge_stats_too(self):
        """Pin for the historical bug: ``reset_data_plane_stats`` skipped
        the merging family, leaking ``try_merge_calls`` across benchmark
        prologues."""
        merge_stats.current.try_merge_calls += 3
        matching_stats.current.constraint_evals += 1
        dispatch_stats.current.matches += 1
        assert merge_stats.try_merge_calls >= 3
        reset_data_plane_stats()
        assert merge_stats.try_merge_calls == 0
        assert matching_stats.constraint_evals == 0
        assert dispatch_stats.matches == 0

    def test_facade_snapshot_sums_base_and_registries(self):
        reset_data_plane_stats()
        registry = MetricRegistry("X")
        try:
            matching_stats.current.constraint_evals += 2  # unattributed (base)
            saved = registry.activate()
            matching_stats.current.constraint_evals += 5  # attributed
            MetricRegistry.restore(saved)
            assert matching_stats.base.constraint_evals == 2
            assert registry.matching.constraint_evals == 5
            assert matching_stats.constraint_evals == 7
            assert matching_stats.snapshot()["constraint_evals"] == 7
        finally:
            registry.close()
        reset_data_plane_stats()
