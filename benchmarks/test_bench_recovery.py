"""Benchmarks for broker crash/restart recovery.

Two angles on the recovery engine of :mod:`repro.broker.recovery`:

* the full failure-schedule walk-through (crash, takeover, restart,
  re-home) with its durable-delivery guarantees, and
* restart cost as a function of routing-table size, for both recovery
  paths (journal replay from scratch vs snapshot + empty tail).

The gated ``extra_info`` counters are deterministic; wall-clock numbers
are recorded for trend-watching only.
"""

import pytest

from repro.broker.network import PubSubNetwork
from repro.broker.recovery import DiskRecoveryStore
from repro.experiments import failure_schedule
from repro.filters.filter import Filter
from repro.messages.admin import Subscribe
from repro.topology.builders import line_topology


def test_crash_restart_scenario(benchmark):
    """The crash/restart walk-through with durable subscribers."""
    result = benchmark.pedantic(failure_schedule.run_crash_restart, iterations=1, rounds=1)
    benchmark.extra_info.update(
        {
            "routing_rows": result.report.routing_rows,
            "recovery_log_replayed": result.log_replayed,
            "deliveries_lost": result.report.deliveries_lost,
            "duplicates_suppressed": result.report.duplicates_suppressed,
            "redelivered": result.report.redelivered,
            "retention_replayed": result.report.retention_replayed,
        }
    )
    assert result.durable_guarantees_hold


def test_crash_restart_with_disk_store(benchmark, tmp_path):
    """The same walk-through writing through the fsync'd disk store."""
    config = failure_schedule.FailureScheduleConfig(storage_dir=str(tmp_path))
    result = benchmark.pedantic(
        failure_schedule.run_crash_restart, args=(config,), iterations=1, rounds=1
    )
    benchmark.extra_info.update(
        {
            "recovery_log_replayed": result.log_replayed,
            "retention_replayed": result.report.retention_replayed,
            "disk_bytes_written": result.report.store_counters["disk_bytes_written"],
            "disk_snapshots_written": result.report.store_counters[
                "disk_snapshots_written"
            ],
            "deliveries_lost": result.report.deliveries_lost,
        }
    )
    assert result.durable_guarantees_hold


@pytest.mark.parametrize("records", [100, 400])
def test_disk_cold_restart_recovers_journal(benchmark, tmp_path, records):
    """Cold-open cost of a journal with *records* fsync'd frames."""
    seed = DiskRecoveryStore("B1", str(tmp_path))
    for index in range(records):
        seed.append(
            "client",
            Subscribe(
                Filter({"topic": "t{:04d}".format(index)}),
                subject="c/s{}".format(index),
            ),
        )
    seed.close()
    store = benchmark.pedantic(
        DiskRecoveryStore, args=("B1", str(tmp_path)), iterations=1, rounds=1
    )
    benchmark.extra_info.update(
        {
            "disk_records_recovered": store.counters["disk_records_recovered"],
            "recovery_store_bytes": store.stored_bytes(),
        }
    )
    assert store.counters["disk_records_recovered"] == records
    assert store.counters["disk_torn_records"] == 0
    store.close()


def _loaded_border(subscriptions: int, snapshot: bool) -> PubSubNetwork:
    """A 3-broker line whose border B1 carries *subscriptions* client rows."""
    network = PubSubNetwork(line_topology(3), strategy="simple", latency=0.02)
    network.enable_recovery("B1")
    consumer = network.add_client("consumer", "B1")
    for index in range(subscriptions):
        consumer.subscribe({"topic": "t{:04d}".format(index)}, subscription_id="s{}".format(index))
    network.settle()
    if snapshot:
        network.snapshot_broker("B1")
    network.crash_broker("B1")
    return network


@pytest.mark.parametrize("mode", ["journal", "snapshot"])
@pytest.mark.parametrize("subscriptions", [10, 100, 400])
def test_restart_cost_vs_table_size(benchmark, subscriptions, mode):
    """Restart latency and replay volume as the routing table grows."""
    network = _loaded_border(subscriptions, snapshot=(mode == "snapshot"))
    replayed = benchmark.pedantic(network.restart_broker, args=("B1",), iterations=1, rounds=1)
    broker = network.broker("B1")
    benchmark.extra_info.update(
        {
            "routing_rows": broker.routing_table_size(),
            "recovery_log_replayed": replayed,
            "recovery_store_bytes": broker.recovery.stored_bytes(),
        }
    )
    assert broker.routing_table_size() == subscriptions
    assert replayed == (0 if mode == "snapshot" else subscriptions)
