"""Per-broker state of the logical-mobility scheme (Section 5).

Every broker that participates in delivering a location-dependent
subscription keeps one :class:`LogicalSubscriptionState` per subscription
token.  The state knows the broker's hop distance from the consumer's
border broker, the subscription's movement graph, uncertainty plan and
current location, and from these derives

* the *stored filter* the broker keeps in its routing table for the
  downstream direction (``F_{hop}`` in the paper's notation), and
* the *forwarded filter* the broker registers at the next hop toward the
  producers (``F_{hop+1}``),

so that the set-inclusion chain ``F_k ⊇ ... ⊇ F_1 ⊇ F_0`` of Section 5.1
holds by construction (thanks to the monotonicity of ``ploc`` and the
non-decreasing levels of the plan).

On a location change the state computes which locations to subscribe to
and which to unsubscribe from (the routing-table delta the paper describes
as "removing certain locations and adding new locations").

The scheme keeps one state per (subscription, hop), so a state is a
slot-backed record of references: the ``ploc`` sets belong to the movement
graph; the graph, the location-dependent filter and the concrete filters
to the network's live-filter table (:class:`~repro.filters.merging.
FilterCaches`), which every broker and client of the network shares.
Besides the subscription a state carries what its broker did with it: the
downstream ``destination``, the routing row's ``stored_filter`` and the
neighbours it was ``forwarded_to``, in forwarding order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, FrozenSet, List, Optional, Tuple

from repro.core.adaptivity import UncertaintyPlan
from repro.core.location_filter import LocationDependentFilter, LocationDependentSubscribe
from repro.core.ploc import Location, MovementGraph, PlocFunction
from repro.filters.filter import Filter
from repro.filters.merging import FilterCaches


def shared_graph(caches: FilterCaches, graph: MovementGraph) -> MovementGraph:
    """The network's one graph equal to *graph* (a decoded copy gives way to it)."""
    return caches.live.setdefault((MovementGraph, graph.canonical_key()), graph)


def shared_location_filter(
    caches: FilterCaches, location_filter: LocationDependentFilter
) -> LocationDependentFilter:
    """The network's one location-dependent filter equal to *location_filter*.

    The first of its kind adopts the network's live base filter, so a
    plain subscription with the same filter shares it too.
    """
    live = caches.intern(location_filter)
    if live is location_filter:
        live.base_filter = caches.intern(live.base_filter)
    return live


@dataclass
class LocationChangeDelta:
    """The effect of a location change at one hop.

    ``added`` / ``removed`` are the location-set differences (what the
    paper describes as subscribing / unsubscribing to individual
    locations); ``changed`` is ``False`` when the hop's ``ploc`` set is
    identical for the old and new location (e.g. because it already
    saturates to the full location set), in which case a broker may choose
    not to propagate the update any further.
    """

    old_filter: Filter
    new_filter: Filter
    added: FrozenSet[Location]
    removed: FrozenSet[Location]

    @property
    def changed(self) -> bool:
        """Whether the hop's concrete filter actually changed."""
        return bool(self.added or self.removed)


class LogicalSubscriptionState:
    """State a broker keeps for one location-dependent subscription."""

    __slots__ = (
        "client_id",
        "subscription_id",
        "token",
        "location_filter",
        "movement_graph",
        "plan",
        "current_location",
        "hop_index",
        "destination",
        "stored_filter",
        "forwarded_to",
        "_caches",
    )

    def __init__(
        self,
        client_id: str,
        subscription_id: str,
        location_filter: LocationDependentFilter,
        movement_graph: MovementGraph,
        plan: UncertaintyPlan,
        current_location: Location,
        hop_index: int,
        destination: Optional[str] = None,
        caches: Optional[FilterCaches] = None,
    ) -> None:
        self.client_id = client_id
        self.subscription_id = subscription_id
        #: The subscription token ``client/subscription`` used as routing subject.
        self.token = "{}/{}".format(client_id, subscription_id)
        self._caches = caches if caches is not None else FilterCaches()
        self.location_filter = shared_location_filter(self._caches, location_filter)
        self.movement_graph = shared_graph(self._caches, movement_graph)
        self.plan = plan
        self.current_location = current_location
        self.hop_index = int(hop_index)
        #: Where the subscription came from: the routing row's destination.
        self.destination = destination
        #: The filter of the routing row the broker stored for this state
        #: (``None`` while it stores none); set by the broker with the row.
        self.stored_filter: Optional[Filter] = None
        #: Neighbours the subscription was forwarded to, in forwarding order.
        self.forwarded_to: Tuple[str, ...] = ()

    @classmethod
    def from_subscribe(
        cls,
        message: LocationDependentSubscribe,
        destination: Optional[str],
        caches: Optional[FilterCaches] = None,
    ) -> "LogicalSubscriptionState":
        """The state of the broker that received *message* from *destination*."""
        return cls(
            message.client_id,
            message.subscription_id,
            message.location_filter,
            message.movement_graph,
            message.plan,
            message.current_location,
            message.hop_index,
            destination,
            caches,
        )

    def subscribe_message(self, hop_index: int) -> LocationDependentSubscribe:
        """This subscription as the message a broker at *hop_index* receives."""
        return LocationDependentSubscribe(
            client_id=self.client_id,
            subscription_id=self.subscription_id,
            location_filter=self.location_filter,
            movement_graph=self.movement_graph,
            plan=self.plan,
            current_location=self.current_location,
            hop_index=hop_index,
        )

    def owns(self, row: Any) -> bool:
        """Whether *row* is the routing row stored for this state."""
        return (
            self.stored_filter is not None
            and row.destination == self.destination
            and row.filter.key() == self.stored_filter.key()
        )

    # -- location sets and filters ---------------------------------------------
    def location_set(
        self, location: Optional[Location] = None, ahead: int = 0
    ) -> FrozenSet[Location]:
        """``ploc(location, level)`` at this hop (default: the current location).

        The level is the plan's for the hop plus the subscription's
        vicinity widening (Section 3.3); *ahead* = 1 asks for the next hop
        toward the producers.
        """
        steps = self.plan.level_for_hop(self.hop_index + ahead) + self.location_filter.vicinity
        return self.movement_graph.reachable_within(location or self.current_location, steps)

    def _filter(self, locations: FrozenSet[Location]) -> Filter:
        """``location_filter.instantiate(locations)``, built once per network.

        The three-part key keeps the instantiation apart from the filters
        the table holds by ``(type, key)``.
        """
        caches = self._caches
        key = (LocationDependentFilter, self.location_filter.key(), locations)
        filter_ = caches.live.get(key)
        if filter_ is None:
            filter_ = self.location_filter.instantiate(locations)
            filter_ = caches.live[key] = caches.intern(filter_)
        return filter_

    def current_filter(self) -> Filter:
        """The concrete filter this broker stores for the downstream direction."""
        return self._filter(self.location_set())

    def filter_at(self, location: Location) -> Filter:
        """The concrete filter this hop would store if the client were at *location*."""
        return self._filter(self.location_set(location))

    def next_hop_filter(self) -> Filter:
        """The filter to register at the next hop toward the producers."""
        return self._filter(self.location_set(ahead=1))

    # -- location changes --------------------------------------------------------
    def apply_location_change(self, new_location: Location) -> LocationChangeDelta:
        """Move the subscription to *new_location* and report the filter delta."""
        if new_location not in self.movement_graph:
            raise ValueError(
                "location {!r} is not part of the movement graph".format(new_location)
            )
        old_set = self.location_set()
        self.current_location = new_location
        new_set = self.location_set()
        return LocationChangeDelta(
            self._filter(old_set), self._filter(new_set), new_set - old_set, old_set - new_set
        )

    # -- invariants -----------------------------------------------------------------
    def chain_is_consistent(self, downstream: "LogicalSubscriptionState") -> bool:
        """Check the set-inclusion property against the state one hop closer to the client.

        ``downstream`` is the state at hop ``hop_index - 1``; the property
        of Section 5.1 requires this broker's location set to be a superset
        of the downstream one whenever both agree on the client's location.
        """
        if downstream.hop_index + 1 != self.hop_index:
            return False
        if downstream.current_location != self.current_location:
            return True  # an update is still in flight; nothing to check yet
        return self.location_set() >= downstream.location_set()

    def describe(self) -> str:
        """Human-readable rendering used by traces and experiment output."""
        return (
            "LogicalSubscriptionState(token={}, hop={}, level={}, loc={}, set={})".format(
                self.token,
                self.hop_index,
                self.plan.level_for_hop(self.hop_index),
                self.current_location,
                sorted(self.location_set()),
            )
        )

    def fork_for_next_hop(self) -> "LogicalSubscriptionState":
        """The state a broker one hop further from the client would keep."""
        return LogicalSubscriptionState.from_subscribe(
            self.subscribe_message(self.hop_index + 1), self.destination, self._caches
        )


def filter_chain(
    location_filter: LocationDependentFilter,
    movement_graph: MovementGraph,
    plan: UncertaintyPlan,
    location: Location,
    hops: int,
) -> List[Filter]:
    """The concrete filters F0 .. F_hops for a client at *location*.

    This is the pure-function view of the scheme used by the Table 2 /
    Table 4 experiments and by the property tests of the set-inclusion
    chain; the broker network computes the same filters incrementally.
    """
    ploc = PlocFunction(movement_graph)
    filters: List[Filter] = []
    for hop in range(hops + 1):
        steps = plan.level_for_hop(hop) + location_filter.vicinity
        filters.append(location_filter.instantiate(ploc(location, steps)))
    return filters


def location_sets_chain(
    movement_graph: MovementGraph,
    plan: UncertaintyPlan,
    location: Location,
    hops: int,
) -> List[FrozenSet[Location]]:
    """The per-hop ``ploc`` sets (the raw content of Tables 2 and 4)."""
    ploc = PlocFunction(movement_graph)
    return [ploc(location, plan.level_for_hop(hop)) for hop in range(hops + 1)]
