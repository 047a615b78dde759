"""Figure 2 — missed and duplicated notifications under naive roaming.

Figure 2 of the paper shows a flooding scenario in which a client moves
from one border broker to another while an event propagates through the
network: depending on the direction of movement relative to the event
wave, the event is "delivered twice" or "not delivered".

``run()`` reconstructs both timings on a line of brokers with flooding
routing:

* **duplicate case** — the client starts close to the producer (the event
  wave reaches it early), then moves ahead of the wave to a distant broker
  where the same event arrives again later;
* **miss case** — the client starts far from the producer and moves,
  before the wave reaches it, to a broker the wave has already passed.

The same two timings are then repeated with the full relocation protocol
of Section 4 (covering routing, virtual counterpart, replay), which
delivers the event exactly once in both cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.baselines.naive_roaming import NaiveRoamingClient
from repro.broker.client import Client
from repro.experiments.backends import Backend, build_network
from repro.topology.builders import line_topology

#: Filter used by the roaming consumer in all cases.
EVENT_FILTER = {"type": "alert"}


@dataclass
class CaseResult:
    """Outcome of one (timing, mechanism) combination."""

    name: str
    mechanism: str
    delivered: int
    duplicates: int
    missed: int

    @property
    def exactly_once(self) -> bool:
        """``True`` when the single published event arrived exactly once."""
        return self.delivered >= 1 and self.duplicates == 0 and self.missed == 0


@dataclass
class Fig2Result:
    """All four (timing x mechanism) outcomes."""

    cases: List[CaseResult]

    def case(self, name: str, mechanism: str) -> CaseResult:
        """Look up one case by timing name and mechanism."""
        for case in self.cases:
            if case.name == name and case.mechanism == mechanism:
                return case
        raise KeyError((name, mechanism))

    @property
    def naive_shows_anomalies(self) -> bool:
        """The naive baseline duplicates in one timing and misses in the other."""
        return (
            self.case("duplicate-timing", "naive").duplicates > 0
            and self.case("miss-timing", "naive").missed > 0
        )

    @property
    def protocol_exactly_once(self) -> bool:
        """The relocation protocol delivers exactly once in both timings."""
        return (
            self.case("duplicate-timing", "relocation").exactly_once
            and self.case("miss-timing", "relocation").exactly_once
        )

    def format_text(self) -> str:
        """Render the outcome matrix."""
        lines = [
            "{:<18} {:<12} {:>9} {:>10} {:>7}".format(
                "timing", "mechanism", "delivered", "duplicates", "missed"
            )
        ]
        for case in self.cases:
            lines.append(
                "{:<18} {:<12} {:>9} {:>10} {:>7}".format(
                    case.name, case.mechanism, case.delivered, case.duplicates, case.missed
                )
            )
        return "\n".join(lines)


def _run_naive(
    case: str,
    brokers: int,
    latency: float,
    backend: Backend,
) -> CaseResult:
    """The naive baseline under flooding for one timing."""
    network = build_network(
        line_topology(brokers),
        strategy="flooding",
        latency=latency,
        backend=backend,
    )
    producer = network.add_client("producer", "B1")
    roamer = NaiveRoamingClient("roamer", EVENT_FILTER, variant=NaiveRoamingClient.ABRUPT)

    if case == "duplicate-timing":
        start, destination = "B2", "B{}".format(brokers)
        move_offset = 1.5 * latency  # after the wave passed B2, before it reaches the far end
    else:
        start, destination = "B{}".format(brokers), "B2"
        move_offset = (brokers - 2.5) * latency  # wave already passed B2, not yet at the far end

    roamer.arrive(network.broker(start))
    network.settle()
    publish_time = network.now
    producer.publish({"type": "alert", "detail": "fire"})

    network.run_until(publish_time + move_offset)
    roamer.leave()
    roamer.arrive(network.broker(destination))
    network.settle()

    identities = roamer.received_identities()
    delivered = len(identities)
    duplicates = len(roamer.duplicate_identities())
    missed = 1 if not identities else 0
    network.close()
    return CaseResult(
        name=case, mechanism="naive", delivered=delivered, duplicates=duplicates, missed=missed
    )


def _run_relocation(
    case: str,
    brokers: int,
    latency: float,
    backend: Backend,
) -> CaseResult:
    """The same timings with the Section 4 relocation protocol."""
    network = build_network(
        line_topology(brokers),
        strategy="covering",
        latency=latency,
        backend=backend,
    )
    producer = network.add_client("producer", "B1")
    producer.advertise(EVENT_FILTER)
    consumer = Client("roamer")

    if case == "duplicate-timing":
        start, destination = "B2", "B{}".format(brokers)
        move_offset = 1.5 * latency
    else:
        start, destination = "B{}".format(brokers), "B2"
        move_offset = (brokers - 2.5) * latency

    consumer.attach(network.broker(start))
    consumer.subscribe(EVENT_FILTER)
    network.settle()
    publish_time = network.now
    producer.publish({"type": "alert", "detail": "fire"})

    network.run_until(publish_time + move_offset)
    consumer.move_to(network.broker(destination))
    network.settle()

    identities = consumer.received_identities()
    counts: Dict[Tuple[str, int], int] = {}
    for identity in identities:
        counts[identity] = counts.get(identity, 0) + 1
    duplicates = sum(1 for count in counts.values() if count > 1)
    missed = 1 if not identities else 0
    network.close()
    return CaseResult(
        name=case,
        mechanism="relocation",
        delivered=len(identities),
        duplicates=duplicates,
        missed=missed,
    )


def run(
    brokers: int = 6,
    latency: float = 0.2,
    backend: Backend = Backend(),
) -> Fig2Result:
    """Reproduce the Figure 2 anomalies and their fix."""
    cases: List[CaseResult] = []
    for case in ("duplicate-timing", "miss-timing"):
        cases.append(_run_naive(case, brokers, latency, backend))
        cases.append(_run_relocation(case, brokers, latency, backend))
    return Fig2Result(cases=cases)
