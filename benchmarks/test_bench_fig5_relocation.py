"""Benchmarks for the Figure 5 relocation walk-through and relocation ablations."""

import pytest

from repro.broker.network import PubSubNetwork
from repro.experiments import fig5_relocation
from repro.filters.filter import Filter
from repro.metrics.qos import check_completeness, check_no_duplicates
from repro.topology.builders import line_topology


@pytest.mark.parametrize("producers", [1, 2])
def test_fig5_walkthrough(benchmark, producers):
    """Figure 5: the relocation protocol with one and two producers."""
    result = benchmark(fig5_relocation.run, producers=producers)
    benchmark.extra_info["buffered"] = result.buffered_at_old_border
    benchmark.extra_info["replayed"] = result.replayed
    benchmark.extra_info["relocation_latency"] = result.relocation_latency
    assert result.all_guarantees_hold


def _relocation_with_disconnection(notifications_while_away: int):
    """Ablation driver: relocation cost as the disconnection backlog grows."""
    network = PubSubNetwork(line_topology(6), strategy="covering", latency=0.02)
    producer = network.add_client("P", "B3")
    producer.advertise({"topic": "news"})
    consumer = network.add_client("C", "B6")
    consumer.subscribe({"topic": "news"})
    network.settle()
    consumer.detach()
    for index in range(notifications_while_away):
        producer.publish({"topic": "news", "index": index})
    network.settle()
    consumer.move_to(network.broker("B1"))
    network.settle()
    relocation = network.broker("B1").physical.relocation_records[-1]
    report = check_completeness(network.trace, "C", Filter({"topic": "news"}))
    assert report.complete
    assert check_no_duplicates(network.trace, "C").clean
    return relocation


@pytest.mark.parametrize("backlog", [1, 10, 100, 500])
def test_relocation_scales_with_buffered_backlog(benchmark, backlog):
    """Ablation: replay size and latency as a function of the buffered backlog."""
    relocation = benchmark(_relocation_with_disconnection, backlog)
    benchmark.extra_info["backlog"] = backlog
    benchmark.extra_info["replayed"] = relocation.replayed
    benchmark.extra_info["latency"] = relocation.latency
    assert relocation.replayed == backlog
    assert relocation.latency is not None and relocation.latency > 0
