"""Itineraries: deterministic movement schedules.

An itinerary is a list of timestamped steps.  Experiments build one (by
hand or with the generators in :mod:`repro.mobility.models`) and hand it to
an :class:`~repro.mobility.driver.ItineraryDriver`, which schedules the
corresponding client operations on the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class LogicalStep:
    """One logical movement step: at *time*, the client is at *location*."""

    time: float
    location: str


@dataclass(frozen=True)
class RoamingStep:
    """One physical roaming step.

    ``action`` is one of:

    * ``"detach"`` — disconnect from the current border broker;
    * ``"attach"`` — (re-)connect at border broker *broker* (runs the
      relocation protocol when the client has a delivery history).
    """

    time: float
    action: str
    broker: Optional[str] = None

    DETACH = "detach"
    ATTACH = "attach"

    def __post_init__(self) -> None:
        if self.action not in (self.DETACH, self.ATTACH):
            raise ValueError("unknown roaming action: {!r}".format(self.action))
        if self.action == self.ATTACH and not self.broker:
            raise ValueError("an attach step needs a broker name")


class LogicalItinerary:
    """A timed sequence of logical locations."""

    def __init__(self, steps: Iterable[LogicalStep]) -> None:
        self.steps: List[LogicalStep] = sorted(steps, key=lambda step: step.time)
        if not self.steps:
            raise ValueError("a logical itinerary needs at least one step")

    @classmethod
    def from_pairs(cls, pairs: Sequence[Tuple[float, str]]) -> "LogicalItinerary":
        """Build from ``[(time, location), ...]`` pairs."""
        return cls(LogicalStep(time=t, location=loc) for t, loc in pairs)

    @classmethod
    def uniform(
        cls, locations: Sequence[str], dwell_time: float, start: float = 0.0
    ) -> "LogicalItinerary":
        """Visit *locations* in order, staying *dwell_time* at each."""
        if dwell_time <= 0:
            raise ValueError("dwell time must be positive")
        return cls(
            LogicalStep(time=start + index * dwell_time, location=location)
            for index, location in enumerate(locations)
        )

    @property
    def initial_location(self) -> str:
        """The location of the first step."""
        return self.steps[0].location

    @property
    def end_time(self) -> float:
        """The time of the last step."""
        return self.steps[-1].time

    def timeline_pairs(self) -> List[Tuple[float, str]]:
        """``(time, location)`` pairs for the QoS epoch checker."""
        return [(step.time, step.location) for step in self.steps]

    def location_at(self, time: float) -> str:
        """The location the itinerary prescribes at *time*."""
        current = self.steps[0].location
        for step in self.steps:
            if step.time <= time:
                current = step.location
            else:
                break
        return current

    def __len__(self) -> int:
        return len(self.steps)


class RoamingItinerary:
    """A timed sequence of detach / attach steps between border brokers."""

    def __init__(self, steps: Iterable[RoamingStep]) -> None:
        self.steps: List[RoamingStep] = sorted(steps, key=lambda step: step.time)
        if not self.steps:
            raise ValueError("a roaming itinerary needs at least one step")

    @classmethod
    def from_visits(
        cls,
        visits: Sequence[Tuple[float, float, str]],
    ) -> "RoamingItinerary":
        """Build from ``(attach_time, detach_time, broker)`` visit windows.

        Consecutive visits may leave gaps (the disconnected phases).  The
        last visit may use ``float('inf')`` as its detach time to stay
        connected until the end of the run; such a detach step is omitted.
        """
        steps: List[RoamingStep] = []
        for attach_time, detach_time, broker in visits:
            steps.append(RoamingStep(time=attach_time, action=RoamingStep.ATTACH, broker=broker))
            if detach_time != float("inf"):
                if detach_time <= attach_time:
                    raise ValueError("detach time must be after attach time")
                steps.append(RoamingStep(time=detach_time, action=RoamingStep.DETACH))
        return cls(steps)

    @property
    def end_time(self) -> float:
        """The time of the last step."""
        return self.steps[-1].time

    def brokers_visited(self) -> List[str]:
        """Brokers in attach order (with repeats)."""
        return [
            step.broker for step in self.steps if step.action == RoamingStep.ATTACH and step.broker
        ]

    def connected_windows(self) -> List[Tuple[float, Optional[float], str]]:
        """``(attach_time, detach_time_or_None, broker)`` windows."""
        windows: List[Tuple[float, Optional[float], str]] = []
        current: Optional[Tuple[float, str]] = None
        for step in self.steps:
            if step.action == RoamingStep.ATTACH:
                current = (step.time, step.broker or "")
            elif step.action == RoamingStep.DETACH and current is not None:
                windows.append((current[0], step.time, current[1]))
                current = None
        if current is not None:
            windows.append((current[0], None, current[1]))
        return windows

    def __len__(self) -> int:
        return len(self.steps)
