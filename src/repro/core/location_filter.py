"""Location-dependent filters and the ``myloc`` marker (Sections 3.3 and 5.1).

A location-dependent subscription looks like an ordinary content-based
subscription except that the constraint on the *location attribute* is the
special marker ``myloc``::

    (service = "parking"), (location ∈ myloc), (car-type >= "compact")

The marker stands for "a specific set of locations that depend on the
current location of the client".  :class:`LocationDependentFilter` keeps
the base (location-independent) part of the filter separate from the
location attribute so that the per-hop filters ``F_i = base ∧ (location ∈
ploc(x, level_i))`` of Section 5.1 can be instantiated cheaply.

:class:`LocationDependentSubscribe` is the administrative message that
carries such a subscription (together with the movement graph, the
uncertainty plan and the client's initial location) through the broker
network; each broker derives its own per-hop filter from it.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

from repro.core.adaptivity import UncertaintyPlan
from repro.core.ploc import Location, MovementGraph
from repro.filters.constraints import InSet
from repro.filters.filter import Filter, MatchNone
from repro.filters.wire import filter_from_wire, filter_to_wire
from repro.messages.base import Message, MessageKind


# ---------------------------------------------------------------------------
# Wire codecs for the logical-mobility payload types
# ---------------------------------------------------------------------------
#
# A LocationDependentSubscribe carries everything a broker needs to join
# the scheme — the filter template, the movement graph and the
# uncertainty plan — so each of those has an (encode, decode) pair for
# the message's ``wire_fields``.


def movement_graph_to_wire(graph: MovementGraph) -> Dict[str, Any]:
    """Locations and (deduplicated, sorted) edges of a movement graph, built once per graph."""
    if graph._wire is None:
        locations = graph.locations()
        edges = [
            [location, neighbour]
            for location in locations
            for neighbour in graph.neighbours(location)
            if location < neighbour
        ]
        graph._wire = {"locations": locations, "edges": edges}
    return graph._wire


def movement_graph_from_wire(payload: Dict[str, Any]) -> MovementGraph:
    """Inverse of :func:`movement_graph_to_wire`."""
    return MovementGraph.from_edges(
        [(left, right) for left, right in payload.get("edges", ())],
        extra_locations=payload.get("locations", ()),
    )


def plan_to_wire(plan: UncertaintyPlan) -> Dict[str, Any]:
    """Levels and label of an uncertainty plan."""
    return {"levels": list(plan.levels), "name": plan.name}


def plan_from_wire(payload: Dict[str, Any]) -> UncertaintyPlan:
    """Inverse of :func:`plan_to_wire`."""
    return UncertaintyPlan(levels=list(payload["levels"]), name=payload["name"])


def location_filter_to_wire(location_filter: "LocationDependentFilter") -> Dict[str, Any]:
    """Base filter (canonical keys), location attribute and vicinity."""
    return {
        "base": filter_to_wire(location_filter.base_filter),
        "location_attribute": location_filter.location_attribute,
        "vicinity": location_filter.vicinity,
    }


def location_filter_from_wire(payload: Dict[str, Any]) -> "LocationDependentFilter":
    """Inverse of :func:`location_filter_to_wire`."""
    base = filter_from_wire(payload["base"])
    return LocationDependentFilter(
        dict(base.constraints),
        location_attribute=payload["location_attribute"],
        vicinity=payload["vicinity"],
    )


MOVEMENT_GRAPH = (movement_graph_to_wire, movement_graph_from_wire)
UNCERTAINTY_PLAN = (plan_to_wire, plan_from_wire)
LOCATION_FILTER = (location_filter_to_wire, location_filter_from_wire)


class _MyLocMarker:
    """The type of :data:`MYLOC`, the ``myloc`` placeholder: building one
    (a copy does too) returns that one marker."""

    def __new__(cls) -> "_MyLocMarker":
        return MYLOC

    def __repr__(self) -> str:
        return "myloc"


#: The ``myloc`` marker users put into subscription templates.
MYLOC: _MyLocMarker = object.__new__(_MyLocMarker)


class LocationDependentFilter:
    """A content-based filter whose location constraint is the ``myloc`` marker.

    Parameters
    ----------
    template:
        A mapping from attribute names to constraint specifications (as
        accepted by :class:`repro.filters.filter.Filter`).  Exactly one
        attribute may carry the value :data:`MYLOC`; alternatively the
        location attribute can be named explicitly via *location_attribute*
        and omitted from the template.
    location_attribute:
        Name of the attribute that carries locations in notifications.
        Defaults to ``"location"``.
    vicinity:
        Optional extra number of movement-graph steps to widen every
        instantiation by — this models subscriptions like "at most two
        blocks away from myloc" (Section 3.3).  The widening is applied by
        the logical-mobility manager when it computes ``ploc``; the filter
        itself just records the requested vicinity.
    """

    def __init__(
        self,
        template: Mapping[str, Any],
        location_attribute: str = "location",
        vicinity: int = 0,
    ) -> None:
        if vicinity < 0:
            raise ValueError("vicinity must be non-negative")
        base: Dict[str, Any] = {}
        marker_attribute: Optional[str] = None
        for name, spec in template.items():
            if spec is MYLOC:
                if marker_attribute is not None:
                    raise ValueError("only one attribute may use the myloc marker")
                marker_attribute = name
            else:
                base[name] = spec
        self.location_attribute = marker_attribute or location_attribute
        if self.location_attribute in base:
            raise ValueError(
                "the location attribute {!r} must use the myloc marker, not a fixed "
                "constraint".format(self.location_attribute)
            )
        self.base_filter = Filter(base)
        self.vicinity = int(vicinity)

    # -- instantiation -------------------------------------------------------
    def instantiate(self, locations: Iterable[Location]) -> Filter:
        """The concrete filter accepting the base filter AND location ∈ *locations*.

        An empty location set yields :class:`MatchNone` (nothing can match).
        """
        location_list = sorted(set(locations))
        if not location_list:
            return MatchNone()
        return self.base_filter.with_constraint(
            self.location_attribute, InSet(location_list)
        )

    # -- identity --------------------------------------------------------------
    def key(self) -> Tuple[Any, ...]:
        """Canonical identity (base filter, location attribute, vicinity)."""
        return (self.base_filter.key(), self.location_attribute, self.vicinity)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LocationDependentFilter):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return "LocationDependentFilter(base={}, location_attr={!r}, vicinity={})".format(
            self.base_filter, self.location_attribute, self.vicinity
        )


class LocationDependentSubscribe(Message):
    """Administrative message registering a location-dependent subscription.

    Carries everything a broker needs to participate in the logical-
    mobility scheme for this subscription: the filter template, the
    movement graph, the uncertainty plan, the client's current location,
    and the hop index of the receiving broker (incremented as the message
    is forwarded toward producers).
    """

    kind = MessageKind.MOBILITY

    wire_fields = (
        "client_id",
        "subscription_id",
        ("location_filter", LOCATION_FILTER),
        ("movement_graph", MOVEMENT_GRAPH),
        ("plan", UNCERTAINTY_PLAN),
        "current_location",
        "hop_index",
    )

    __slots__ = (
        "client_id",
        "subscription_id",
        "location_filter",
        "movement_graph",
        "plan",
        "current_location",
        "hop_index",
    )

    def __init__(
        self,
        client_id: str,
        subscription_id: str,
        location_filter: LocationDependentFilter,
        movement_graph: MovementGraph,
        plan: UncertaintyPlan,
        current_location: Location,
        hop_index: int = 0,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(meta)
        if current_location not in movement_graph:
            raise ValueError(
                "current location {!r} is not part of the movement graph".format(current_location)
            )
        self.client_id = client_id
        self.subscription_id = subscription_id
        self.location_filter = location_filter
        self.movement_graph = movement_graph
        self.plan = plan
        self.current_location = current_location
        self.hop_index = int(hop_index)

    def for_next_hop(self) -> "LocationDependentSubscribe":
        """A copy of this message with the hop index advanced by one."""
        return LocationDependentSubscribe(
            client_id=self.client_id,
            subscription_id=self.subscription_id,
            location_filter=self.location_filter,
            movement_graph=self.movement_graph,
            plan=self.plan,
            current_location=self.current_location,
            hop_index=self.hop_index + 1,
            meta=dict(self.meta),
        )

    def describe(self) -> str:
        return "LocationDependentSubscribe(client={}, sub={}, loc={}, hop={}, plan={})".format(
            self.client_id,
            self.subscription_id,
            self.current_location,
            self.hop_index,
            self.plan.name,
        )


class LocationDependentUnsubscribe(Message):
    """Withdraw a location-dependent subscription."""

    kind = MessageKind.MOBILITY

    wire_fields = ("client_id", "subscription_id")

    __slots__ = ("client_id", "subscription_id")

    def __init__(
        self,
        client_id: str,
        subscription_id: str,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(meta)
        self.client_id = client_id
        self.subscription_id = subscription_id

    def describe(self) -> str:
        return "LocationDependentUnsubscribe(client={}, sub={})".format(
            self.client_id, self.subscription_id
        )
