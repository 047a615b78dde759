"""Notification workload generators.

A generator is attached to a producer client and schedules ``publish``
calls on the network's simulator.  All generators draw from seeded RNGs,
so runs are reproducible and the *same* publication schedule can be
replayed against different middleware configurations (which is how the
Figure 9 comparison keeps the workload identical across routing
strategies).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.broker.client import Client
from repro.broker.network import PubSubNetwork
from repro.sim.rng import DeterministicRandom


@dataclass(frozen=True)
class ScheduledPublication:
    """One planned publication: at *time*, publish *attributes*."""

    time: float
    attributes: Tuple[Tuple[str, Any], ...]

    def as_dict(self) -> Dict[str, Any]:
        """The attributes as a mutable mapping."""
        return dict(self.attributes)


def publish_schedule(
    network: PubSubNetwork, client: Client, schedule: Sequence[ScheduledPublication]
) -> None:
    """Schedule the publications of *schedule* on the network's clock."""
    clock = network.clock
    for item in schedule:
        if item.time <= clock.now:
            client.publish(item.as_dict())
        else:
            clock.schedule_at(
                item.time,
                client.publish,
                item.as_dict(),
                label="publish by {}".format(client.client_id),
            )


class NotificationGenerator:
    """Base class: produces a deterministic publication schedule."""

    def schedule(self, start: float, end: float) -> List[ScheduledPublication]:
        """Publications planned between *start* and *end* (simulated seconds)."""
        raise NotImplementedError

    def drive(self, network: PubSubNetwork, client: Client, start: float, end: float) -> int:
        """Schedule the generator's publications for *client*; return the count."""
        planned = self.schedule(start, end)
        publish_schedule(network, client, planned)
        return len(planned)


class UniformLocationPublisher(NotificationGenerator):
    """Fixed-rate publications with locations drawn uniformly from a set.

    This is the workload the paper assumes for the message-count
    evaluation: "notifications are generated by the producers according to
    a uniform distribution over the set of locations" (Section 5.4).
    """

    def __init__(
        self,
        locations: Sequence[str],
        rate: float,
        rng: DeterministicRandom,
        base_attributes: Optional[Mapping[str, Any]] = None,
        location_attribute: str = "location",
    ) -> None:
        if rate <= 0:
            raise ValueError("publication rate must be positive")
        if not locations:
            raise ValueError("need at least one location")
        self.locations = list(locations)
        self.rate = float(rate)
        self.rng = rng
        self.base_attributes = dict(base_attributes or {})
        self.location_attribute = location_attribute

    def schedule(self, start: float, end: float) -> List[ScheduledPublication]:
        interval = 1.0 / self.rate
        out: List[ScheduledPublication] = []
        time = start
        index = 0
        while time < end:
            attributes = dict(self.base_attributes)
            attributes[self.location_attribute] = self.rng.choice(self.locations)
            attributes.setdefault("index", index)
            out.append(
                ScheduledPublication(time=time, attributes=tuple(sorted(attributes.items())))
            )
            time += interval
            index += 1
        return out


class PoissonPublisher(NotificationGenerator):
    """Publications with exponentially distributed inter-arrival times."""

    def __init__(
        self,
        rate: float,
        rng: DeterministicRandom,
        attribute_factory: Callable[[int, DeterministicRandom], Mapping[str, Any]],
    ) -> None:
        if rate <= 0:
            raise ValueError("publication rate must be positive")
        self.rate = float(rate)
        self.rng = rng
        self.attribute_factory = attribute_factory

    def schedule(self, start: float, end: float) -> List[ScheduledPublication]:
        out: List[ScheduledPublication] = []
        time = start
        index = 0
        while True:
            time += self.rng.expovariate(self.rate)
            if time >= end:
                break
            attributes = dict(self.attribute_factory(index, self.rng))
            out.append(
                ScheduledPublication(time=time, attributes=tuple(sorted(attributes.items())))
            )
            index += 1
        return out


class BurstPublisher(NotificationGenerator):
    """Publications in periodic bursts (stress test for the buffers)."""

    def __init__(
        self,
        burst_size: int,
        burst_interval: float,
        attribute_factory: Callable[[int], Mapping[str, Any]],
        spacing: float = 0.0,
    ) -> None:
        if burst_size < 1:
            raise ValueError("burst size must be at least one")
        if burst_interval <= 0:
            raise ValueError("burst interval must be positive")
        if spacing < 0:
            raise ValueError("spacing must be non-negative")
        self.burst_size = burst_size
        self.burst_interval = burst_interval
        self.attribute_factory = attribute_factory
        self.spacing = spacing

    def schedule(self, start: float, end: float) -> List[ScheduledPublication]:
        out: List[ScheduledPublication] = []
        burst_start = start
        index = 0
        while burst_start < end:
            for position in range(self.burst_size):
                time = burst_start + position * self.spacing
                if time >= end:
                    break
                attributes = dict(self.attribute_factory(index))
                out.append(
                    ScheduledPublication(time=time, attributes=tuple(sorted(attributes.items())))
                )
                index += 1
            burst_start += self.burst_interval
        return out
