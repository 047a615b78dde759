"""Figure 3 — blackout after (re-)subscribing: simple routing vs. flooding.

Figure 3a: with routed subscriptions it takes ``t_d`` for a new
subscription to reach the producer's broker and another ``t_d`` for the
first matching notification to travel back, so roughly ``2·t_d`` worth of
notifications are lost around every re-subscription.

Figure 3b: with flooding and client-side filtering, notifications that
were already in flight when the filter changed (published as early as
``t_sub − t_d``) still reach the client — there is no blackout.

``run()`` measures both on the same line topology: a producer at one end
publishes a steady stream of matching notifications; the consumer at the
other end issues its subscription (or flips its client-side filter) at a
known instant, and the report collects which notifications around that
instant were delivered.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.flooding_client_filter import FloodingLocationConsumer
from repro.baselines.resubscribe import ResubscribingLocationConsumer
from repro.broker.network import PubSubNetwork
from repro.core.ploc import MovementGraph
from repro.experiments.backends import Backend, build_network
from repro.filters.constraints import Equals
from repro.filters.filter import Filter
from repro.metrics.blackout import BlackoutReport, measure_blackout
from repro.topology.builders import line_topology


@dataclass
class Fig3Result:
    """Blackout reports for the routed-resubscription and flooding cases."""

    routed: BlackoutReport
    flooding: BlackoutReport
    propagation_delay: float  # the t_d of the experiment (one-way, subscriber to producer)
    publish_interval: float

    @property
    def routed_blackout(self) -> float:
        """Measured blackout (first delivery delay) under routed re-subscription."""
        return (
            self.routed.blackout_duration
            if self.routed.blackout_duration is not None
            else float("inf")
        )

    @property
    def flooding_blackout(self) -> float:
        """Measured blackout under flooding with client-side filtering."""
        return (
            self.flooding.blackout_duration
            if self.flooding.blackout_duration is not None
            else float("inf")
        )

    @property
    def shows_expected_shape(self) -> bool:
        """Routed blackout is about 2·t_d; flooding misses nothing published after t_sub − t_d."""
        routed_ok = self.routed_blackout >= 2 * self.propagation_delay - self.publish_interval
        # Flooding may only miss notifications that were already delivered
        # (and filtered out) before the location change, i.e. published
        # earlier than t_sub - t_d; the boundary publication is ambiguous
        # by one publish interval.
        flooding_cutoff = (
            self.flooding.subscribe_time - self.propagation_delay + self.publish_interval
        )
        flooding_ok = self.flooding.missed_count == 0 or all(
            publish_time <= flooding_cutoff for publish_time, _ in self.flooding.missed
        )
        return routed_ok and flooding_ok and self.flooding_blackout < self.routed_blackout

    def format_text(self) -> str:
        """Render the comparison."""
        lines = [
            "one-way propagation delay t_d = {:.3f} s".format(self.propagation_delay),
            "",
            "{:<28} {:>16} {:>14}".format("mechanism", "blackout [s]", "missed events"),
            "{:<28} {:>16.3f} {:>14}".format(
                "routed re-subscription", self.routed_blackout, self.routed.missed_count
            ),
            "{:<28} {:>16.3f} {:>14}".format(
                "flooding + client filter", self.flooding_blackout, self.flooding.missed_count
            ),
        ]
        return "\n".join(lines)


def _steady_publisher(
    network: PubSubNetwork, producer, location: str, interval: float, end: float
) -> None:
    """Schedule a steady stream of matching notifications from time 0 to *end*."""
    clock = network.clock
    time = 0.0
    index = 0
    while time <= end:
        clock.schedule_at(
            time,
            producer.publish,
            {"service": "demo", "location": location, "index": index},
            label="steady publish",
        )
        time += interval
        index += 1


def run(
    brokers: int = 4,
    latency: float = 0.5,
    publish_interval: float = 0.1,
    horizon: float = 12.0,
    backend: Backend = Backend(),
) -> Fig3Result:
    """Measure the blackout of both mechanisms on a line of *brokers* brokers."""
    propagation_delay = (brokers - 1) * latency
    subscribe_time = horizon / 2.0
    location = "room-1"

    # --- Figure 3a: routed (simple routing) re-subscription -----------------
    routed_network = build_network(
        line_topology(brokers),
        strategy="simple",
        latency=latency,
        backend=backend,
    )
    routed_producer = routed_network.add_client("producer", "B{}".format(brokers))
    routed_producer.advertise({"service": "demo"})
    consumer = ResubscribingLocationConsumer("consumer", {"service": "demo"})
    consumer.attach(routed_network.broker("B1"))
    _steady_publisher(routed_network, routed_producer, location, publish_interval, horizon)
    routed_network.run_until(subscribe_time)
    subscription_time_routed = routed_network.now
    consumer.set_location(location)
    routed_network.run_until(horizon + 4 * propagation_delay)
    routed_network.settle()
    routed_report = measure_blackout(
        routed_network.trace,
        "consumer",
        Filter({"service": "demo", "location": Equals(location)}),
        subscribe_time=subscription_time_routed,
        window_start=subscription_time_routed - 2 * propagation_delay,
        window_end=horizon,
    )

    routed_network.close()

    # --- Figure 3b: flooding with client-side filtering ----------------------
    flooding_network = build_network(
        line_topology(brokers),
        strategy="flooding",
        latency=latency,
        backend=backend,
    )
    flooding_producer = flooding_network.add_client("producer", "B{}".format(brokers))
    rooms = MovementGraph.line(["room-0", "room-1", "room-2"])
    flooding_consumer = FloodingLocationConsumer(
        "consumer", {"service": "demo"}, movement_graph=rooms, initial_location="room-0"
    )
    flooding_consumer.attach(flooding_network.broker("B1"))
    _steady_publisher(flooding_network, flooding_producer, location, publish_interval, horizon)
    flooding_network.run_until(subscribe_time)
    subscription_time_flooding = flooding_network.now
    flooding_consumer.set_location(location)
    flooding_network.run_until(horizon + 4 * propagation_delay)
    flooding_network.settle()
    flooding_report = measure_blackout(
        flooding_network.trace,
        "consumer",
        Filter({"service": "demo", "location": Equals(location)}),
        subscribe_time=subscription_time_flooding,
        window_start=subscription_time_flooding - 2 * propagation_delay,
        window_end=horizon,
    )
    flooding_network.close()

    return Fig3Result(
        routed=routed_report,
        flooding=flooding_report,
        propagation_delay=propagation_delay,
        publish_interval=publish_interval,
    )
