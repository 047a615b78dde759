"""Figure 9 — total number of messages: flooding vs. the new algorithm.

The paper compares, over 100 seconds and on a log scale, the cumulative
total number of messages (notifications plus administrative messages)
generated by

* flooding, and
* the location-dependent-subscription algorithm for a fast consumer
  (Δ = 1 s) and a slow consumer (Δ = 10 s),

under conservative assumptions: a single consumer, producers publishing
notifications whose locations are uniformly distributed over the location
set, and an administrative message on the subscription path's links for
every location change.

The authors' exact network and rate parameters live in an unavailable
technical report, so the absolute numbers differ; the reproduction targets
the *shape*: flooding generates far more messages than either variant of
the new algorithm, the fast consumer (Δ = 1) costs more than the slow one
(Δ = 10), and all three series grow linearly with time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.broker.network import PubSubNetwork
from repro.core.adaptivity import UncertaintyPlan
from repro.core.location_filter import MYLOC
from repro.core.ploc import MovementGraph
from repro.experiments.backends import Backend, build_network
from repro.metrics.counters import cumulative_message_series
from repro.metrics.qos import check_no_duplicates
from repro.mobility.driver import ItineraryDriver
from repro.mobility.models import random_walk
from repro.sim.rng import DeterministicRandom
from repro.topology.builders import balanced_tree_topology
from repro.workload.generators import UniformLocationPublisher


@dataclass
class Fig9Config:
    """Parameters of the Figure 9 reproduction (paper defaults where known)."""

    horizon: float = 100.0           # seconds, as in the paper's x axis
    sample_interval: float = 10.0    # where the cumulative series is sampled
    dwell_times: Tuple[float, ...] = (1.0, 10.0)  # the paper's Δ = 1 s and Δ = 10 s
    tree_depth: int = 3
    tree_fanout: int = 2
    link_latency: float = 0.02
    locations: int = 16
    publish_rate_per_producer: float = 2.0
    producers: int = 4
    seed: int = 42


@dataclass
class Fig9Series:
    """One curve of Figure 9."""

    label: str
    samples: List[Tuple[float, int]]
    delivered: int
    duplicates: int

    @property
    def total_messages(self) -> int:
        """The cumulative message count at the end of the run."""
        return self.samples[-1][1] if self.samples else 0


@dataclass
class Fig9Result:
    """All curves plus the configuration that produced them."""

    config: Fig9Config
    series: List[Fig9Series]

    def series_by_label(self, label: str) -> Fig9Series:
        """Look up one curve by its label."""
        for series in self.series:
            if series.label == label:
                return series
        raise KeyError(label)

    @property
    def shows_expected_shape(self) -> bool:
        """flooding ≫ new algorithm, and Δ=1 costs more than Δ=10."""
        flooding = self.series_by_label("flooding").total_messages
        fast = self.series_by_label("new alg. Delta=1").total_messages
        slow = self.series_by_label("new alg. Delta=10").total_messages
        return flooding > fast > slow > 0

    def format_text(self) -> str:
        """Render the sampled series as a table (the data behind Figure 9)."""
        times = [t for t, _ in self.series[0].samples]
        header = "{:>6}".format("t[s]") + "".join(
            "{:>22}".format(series.label) for series in self.series
        )
        lines = [header]
        for index, time in enumerate(times):
            row = "{:>6.0f}".format(time)
            for series in self.series:
                row += "{:>22}".format(series.samples[index][1])
            lines.append(row)
        lines.append("")
        for series in self.series:
            lines.append(
                "{:<22} total={:>8}  delivered={:>6}  duplicates={}".format(
                    series.label, series.total_messages, series.delivered, series.duplicates
                )
            )
        return "\n".join(lines)


def _location_names(count: int) -> List[str]:
    return ["loc-{:02d}".format(index) for index in range(count)]


def _build_network(
    config: Fig9Config,
    strategy: str,
    backend: Backend,
) -> Tuple[PubSubNetwork, List[str]]:
    """The broker tree with producers spread over the leaf (border) brokers."""
    topology = balanced_tree_topology(depth=config.tree_depth, fanout=config.tree_fanout)
    network = build_network(
        topology,
        strategy=strategy,
        latency=config.link_latency,
        backend=backend,
    )
    leaves = topology.leaves()
    return network, leaves


def _run_case(
    config: Fig9Config,
    strategy: str,
    dwell_time: Optional[float],
    label: str,
    backend: Backend,
) -> Fig9Series:
    """Run one curve: either flooding or the new algorithm with a given Δ."""
    rng = DeterministicRandom(config.seed)
    locations = _location_names(config.locations)
    movement = MovementGraph.line(locations)
    network, leaves = _build_network(config, strategy, backend)

    # Producers on the last leaves; the consumer on the first leaf.
    consumer_broker = leaves[0]
    producer_brokers = leaves[-config.producers :]
    producers = []
    for index, broker_name in enumerate(producer_brokers):
        producer = network.add_client("producer-{}".format(index), broker_name)
        producer.advertise({"service": "demo"})
        producers.append(producer)

    consumer = network.add_client("consumer", consumer_broker)
    start_location = locations[0]

    if strategy == "flooding":
        plan = UncertaintyPlan.trivial(1)
    else:
        # The per-hop subscription processing delay is dominated by the
        # link latency; the consumer's path to the farthest producer has
        # depth + depth hops in the balanced tree.
        hops = 2 * config.tree_depth
        plan = UncertaintyPlan.adaptive(
            dwell_time=dwell_time if dwell_time is not None else 1.0,
            hop_delays=[config.link_latency] * hops,
        )
    consumer.subscribe_location_dependent(
        {"service": "demo", "location": MYLOC},
        movement_graph=movement,
        plan=plan,
        initial_location=start_location,
    )
    network.settle()

    if dwell_time is not None:
        itinerary = random_walk(
            movement,
            start=start_location,
            steps=int(config.horizon / dwell_time),
            dwell_time=dwell_time,
            rng=rng.fork(1),
            allow_staying=False,
        )
        driver = ItineraryDriver(network, consumer)
        driver.schedule_logical(itinerary)

    workload_rng = rng.fork(2)
    for index, producer in enumerate(producers):
        generator = UniformLocationPublisher(
            locations=locations,
            rate=config.publish_rate_per_producer,
            rng=workload_rng.fork(index),
            base_attributes={"service": "demo"},
        )
        generator.drive(network, producer, start=0.0, end=config.horizon)

    network.run_until(config.horizon)
    network.settle()

    sample_times = [
        t * config.sample_interval
        for t in range(1, int(config.horizon / config.sample_interval) + 1)
    ]
    samples = cumulative_message_series(network.trace, sample_times)
    duplicates = check_no_duplicates(network.trace, "consumer")
    network.close()
    return Fig9Series(
        label=label,
        samples=samples,
        delivered=len(consumer.received),
        duplicates=duplicates.duplicate_count,
    )


def run(
    config: Optional[Fig9Config] = None,
    backend: Backend = Backend(),
) -> Fig9Result:
    """Reproduce the three curves of Figure 9."""
    config = config or Fig9Config()
    series = [
        _run_case(
            config,
            strategy="flooding",
            dwell_time=min(config.dwell_times),
            label="flooding",
            backend=backend,
        )
    ]
    for dwell_time in sorted(config.dwell_times):
        series.append(
            _run_case(
                config,
                strategy="covering",
                dwell_time=dwell_time,
                label="new alg. Delta={:g}".format(dwell_time),
                backend=backend,
            )
        )
    return Fig9Result(config=config, series=series)
