"""Replaying itineraries against a runtime clock.

The driver converts an itinerary into scheduled clock events that call
the corresponding client operations (``set_location`` for logical
mobility, ``detach`` / ``move_to`` for physical roaming).  It also keeps
the realised location timeline, which the epoch-based QoS checker needs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Optional, Tuple

from repro.broker.client import Client
from repro.mobility.itinerary import LogicalItinerary, RoamingItinerary, RoamingStep

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.broker.network import PubSubNetwork


class ItineraryDriver:
    """Schedules the movement of one client on the network's clock.

    The driver depends only on the runtime protocols: it reads and
    schedules through ``network.clock`` (a
    :class:`~repro.runtime.protocols.Clock`) and resolves brokers via
    ``network.broker``, so itineraries replay identically on the
    simulator backend and on the asyncio backend.
    """

    def __init__(self, network: "PubSubNetwork", client: Client) -> None:
        self.network = network
        self.client = client
        self.realised_locations: List[Tuple[float, str]] = []
        self.realised_attachments: List[Tuple[float, Optional[str]]] = []

    # -- logical mobility ---------------------------------------------------
    def schedule_logical(self, itinerary: LogicalItinerary) -> None:
        """Schedule the ``set_location`` calls of a logical itinerary.

        The first step is applied immediately if its time is not in the
        future (it usually describes the initial location the subscription
        was issued with).
        """
        clock = self.network.clock
        for step in itinerary.steps:
            if step.time <= clock.now:
                self._apply_location(step.location)
            else:
                clock.schedule_at(
                    step.time,
                    self._apply_location,
                    step.location,
                    label="set_location {}".format(step.location),
                )

    def _apply_location(self, location: str) -> None:
        self.realised_locations.append((self.network.clock.now, location))
        if self.client.current_location != location or not self.realised_locations[:-1]:
            self.client.set_location(location)

    # -- physical mobility ----------------------------------------------------
    def schedule_roaming(self, itinerary: RoamingItinerary) -> None:
        """Schedule the detach / attach steps of a roaming itinerary."""
        clock = self.network.clock
        for step in itinerary.steps:
            if step.action == RoamingStep.DETACH:
                callback = self._apply_detach
                args: Tuple[Any, ...] = ()
                label = "detach {}".format(self.client.client_id)
            else:
                callback = self._apply_attach
                args = (step.broker,)
                label = "attach {} at {}".format(self.client.client_id, step.broker)
            if step.time <= clock.now:
                callback(*args)
            else:
                clock.schedule_at(step.time, callback, *args, label=label)

    def _apply_detach(self) -> None:
        self.client.detach()
        self.realised_attachments.append((self.network.clock.now, None))

    def _apply_attach(self, broker_name: str) -> None:
        broker = self.network.broker(broker_name)
        # move_to handles both the very first attachment (plain
        # subscriptions) and genuine relocations (moved subscriptions).
        self.client.move_to(broker)
        self.realised_attachments.append((self.network.clock.now, broker_name))
