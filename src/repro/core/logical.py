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

:class:`LogicalMobility` is one broker's side of the scheme.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.core.adaptivity import UncertaintyPlan
from repro.core.location_filter import (
    LocationDependentFilter,
    LocationDependentSubscribe,
    LocationDependentUnsubscribe,
)
from repro.core.ploc import Location, MovementGraph, PlocFunction
from repro.filters.filter import Filter
from repro.filters.merging import FilterCaches
from repro.messages.mobility import LocationUpdate, subscription_token


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


class LocationChangeDelta:
    """The effect of a location change at one hop.

    ``added`` / ``removed`` are the location-set differences (what the
    paper describes as subscribing / unsubscribing to individual
    locations); ``changed`` is ``False`` when the hop's ``ploc`` set is
    identical for the old and new location (e.g. because it already
    saturates to the full location set), in which case a broker may choose
    not to propagate the update any further.
    """

    __slots__ = ("old_filter", "new_filter", "added", "removed")

    def __init__(
        self,
        old_filter: Filter,
        new_filter: Filter,
        added: FrozenSet[Location],
        removed: FrozenSet[Location],
    ) -> None:
        self.old_filter = old_filter
        self.new_filter = new_filter
        self.added = added
        self.removed = removed

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
        self.token = subscription_token(client_id, subscription_id)
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


class LogicalMobility:
    """One broker's side of location-dependent subscriptions (Section 5).

    Owns the broker's states, one per token, and is the only writer of
    their routing rows; the broker builds a new one with the rest of its
    volatile state, and a restart recovers the states.
    """

    def __init__(self, broker: Any) -> None:
        self.broker = broker
        #: token -> this broker's state of a location-dependent subscription.
        self.states: Dict[str, LogicalSubscriptionState] = {}

    def state_for(
        self, client_id: str, subscription_id: str
    ) -> Optional[LogicalSubscriptionState]:
        """The state for a subscription, if this broker has one."""
        return self.states.get(subscription_token(client_id, subscription_id))

    def is_logical_row(self, row: Any, subject: str) -> bool:
        """Whether *row* is the one a location-dependent *subject* is stored in.

        That row travels by the Section 5 protocol, not by the generic
        refresh; tested per row, so that writing, moving and removing it
        changes no forwarding state's input.
        """
        state = self.states.get(subject)
        return state is not None and state.owns(row)

    def _store_row(self, state: LogicalSubscriptionState, filter_: Optional[Filter]) -> None:
        """Move *state*'s routing row to *filter_* (``None``: remove it).

        The only writer of these rows: ``stored_filter`` names the row at
        every table mutation, which is what :meth:`is_logical_row` reads.
        """
        table = self.broker.subscription_table
        if state.stored_filter is not None:
            table.remove(state.stored_filter, state.destination, state.token)
            state.stored_filter = None
        if filter_ is not None:
            row = table.find_entry(filter_, state.destination)
            if row is not None and state.token in row.subjects:
                # The token already holds this row as an ordinary
                # subscription: withdraw it as one before taking it over.
                table.remove(filter_, state.destination, state.token)
            state.stored_filter = filter_
            table.add(filter_, state.destination, state.token)

    def reforward_subscriptions(self, toward: str) -> None:
        """Forward held location-dependent subscriptions toward a newly advertised direction.

        A location-dependent subscription issued before the matching
        advertisement has propagated cannot be forwarded immediately; when
        the advertisement later arrives from *toward*, the subscription is
        sent after it (the same late binding the generic
        ``Broker.refresh_forwarding`` performs for plain subscriptions).
        """
        broker = self.broker
        if broker.strategy.floods_notifications:
            return
        for state in self.states.values():
            if state.destination == toward or toward in state.forwarded_to:
                # Sending it back where it came from would replace the
                # state it came from; sending it twice would do nothing.
                continue
            if broker.forwarding.may_forward(toward, state.location_filter.base_filter):
                state.forwarded_to += (toward,)
                message = state.subscribe_message(state.hop_index + 1)
                broker._links[toward].send(broker.ids.stamp(message))

    def client_location_dependent_subscribe(
        self,
        client_id: str,
        subscription_id: str,
        location_filter: LocationDependentFilter,
        movement_graph: Any,
        plan: Any,
        initial_location: str,
    ) -> None:
        """Register a location-dependent subscription for a local client.

        One it holds here is replaced and numbers on; a held plain one is
        withdrawn first.
        """
        broker = self.broker
        held = broker._held_subscription(client_id, subscription_id)
        if held is not None and held.logical is None:
            broker._withdraw(held)
        message = LocationDependentSubscribe(
            client_id=client_id,
            subscription_id=subscription_id,
            location_filter=location_filter,
            movement_graph=movement_graph,
            plan=plan,
            current_location=initial_location,
            hop_index=0,
        )
        state = broker._apply(broker.ids.stamp(message), client_id)
        next_sequence = 1 if held is None else held.next_sequence
        record = broker._add_subscription(
            client_id, subscription_id, state.stored_filter, next_sequence
        )
        record.logical = state

    def client_set_location(self, client_id: str, new_location: str) -> None:
        """Handle a location change of a locally attached, logically mobile client."""
        broker = self.broker
        for record in broker._require_client(client_id).subscriptions.values():
            if record.logical is None:
                continue
            message = LocationUpdate(
                client_id=client_id,
                subscription_id=record.subscription_id,
                old_location=record.logical.current_location,
                new_location=new_location,
                hop_index=record.logical.hop_index,
            )
            broker._apply(broker.ids.stamp(message), client_id)

    def handle_subscribe(
        self, message: LocationDependentSubscribe, from_destination: str
    ) -> LogicalSubscriptionState:
        broker = self.broker
        state = LogicalSubscriptionState.from_subscribe(
            message, from_destination, broker.filter_caches
        )
        # The state holds the network's live filter and graph; so does the
        # message (a trace keeps it), and with it every hop it is sent on.
        message.location_filter, message.movement_graph = (
            state.location_filter,
            state.movement_graph,
        )
        replaced = self.states.get(state.token)
        if replaced is not None:
            self._store_row(replaced, None)
        # Registered before its row is written, so the row is never plain.
        self.states[state.token] = state
        self._store_row(state, state.current_filter())
        forward = broker.ids.stamp(message.for_next_hop())
        # Under flooding, notifications reach every broker anyway; the
        # location-dependent part degenerates to pure client-side
        # filtering at the border broker (Figure 3b).
        if not broker.strategy.floods_notifications:
            base_filter = state.location_filter.base_filter
            may_forward = broker.forwarding.may_forward
            for neighbour in broker.neighbours():
                if neighbour != from_destination and may_forward(neighbour, base_filter):
                    state.forwarded_to += (neighbour,)
                    broker._links[neighbour].send(forward)
        return state

    def handle_unsubscribe(
        self, message: LocationDependentUnsubscribe, from_destination: Optional[str]
    ) -> None:
        state = self.states.get(subscription_token(message.client_id, message.subscription_id))
        if state is None:
            return
        # The row goes before the token is forgotten, so it is never plain.
        self._store_row(state, None)
        del self.states[state.token]
        forward = LocationDependentUnsubscribe(
            client_id=state.client_id, subscription_id=state.subscription_id
        )
        self.broker.ids.stamp(forward)
        links = self.broker._links
        for neighbour in state.forwarded_to:
            if neighbour in links:
                links[neighbour].send(forward)

    def handle_update(self, message: LocationUpdate, from_destination: Optional[str]) -> None:
        state = self.states.get(subscription_token(message.client_id, message.subscription_id))
        if state is None:
            return
        broker = self.broker
        old_location, new_location = state.current_location, message.new_location
        delta = state.apply_location_change(new_location)

        # Update the stored routing entry (and, at the border broker, the
        # client-side filter used for exact delivery filtering).
        self._store_row(state, delta.new_filter)
        registration = broker._clients.get(state.client_id)
        if registration is not None:
            record = registration.subscriptions.get(state.token)
            if record is not None and record.logical is state:
                record.filter = delta.new_filter

        # Decide whether the update needs to travel further toward the
        # producers.  The next hop's filter changes iff ploc at its level
        # differs between old and new location.
        if not broker.config.propagate_unchanged_location_updates and state.location_set(
            old_location, ahead=1
        ) == state.location_set(new_location, ahead=1):
            return
        update = LocationUpdate(
            client_id=state.client_id,
            subscription_id=state.subscription_id,
            old_location=old_location,
            new_location=new_location,
            hop_index=state.hop_index + 1,
        )
        broker.ids.stamp(update)
        for neighbour in state.forwarded_to:
            if neighbour != from_destination and neighbour in broker._links:
                broker._links[neighbour].send(update)

    def snapshot_entries(self) -> List[Tuple[LocationDependentSubscribe, Tuple[str, ...]]]:
        """The logical half of a routing snapshot: each state's subscription
        and the neighbours it went to (its row is in the table's half)."""
        stamp = self.broker.ids.stamp
        return [
            (stamp(state.subscribe_message(state.hop_index)), state.forwarded_to)
            for state in self.states.values()
        ]

    def restore(self, entries: Iterable[Tuple[Any, Tuple[str, ...]]]) -> None:
        """Recreate the states of :meth:`snapshot_entries`, before any routing row."""
        caches = self.broker.filter_caches
        for subscribe, forwarded_to in entries:
            state = LogicalSubscriptionState.from_subscribe(subscribe, None, caches)
            state.forwarded_to = forwarded_to
            self.states[state.token] = state

    def claim_row(self, filter_: Filter, destination: str, subjects: Sequence[str]) -> Filter:
        """The filter to restore a snapshot row of *subjects* with.

        A restored state whose current filter is the row's claims it and
        its destination, so no forwarding state ever sees that row as plain.
        """
        for state in map(self.states.get, subjects):
            if state is not None and state.stored_filter is None:
                stored = state.current_filter()
                if stored.key() == filter_.key():
                    state.destination, state.stored_filter, filter_ = destination, stored, stored
        return filter_

    #: This component's rows of ``Broker._MESSAGE_TABLE`` (see there).
    #: All three are journaled and carry no plain filter to intern.
    MESSAGES = {
        message_type: ("mobility_received", True, False, "logical", handler)
        for message_type, handler in (
            (LocationDependentSubscribe, handle_subscribe),
            (LocationDependentUnsubscribe, handle_unsubscribe),
            (LocationUpdate, handle_update),
        )
    }

def location_sets_chain(
    movement_graph: MovementGraph,
    plan: UncertaintyPlan,
    location: Location,
    hops: int,
) -> List[FrozenSet[Location]]:
    """The per-hop ``ploc`` sets (the raw content of Tables 2 and 4)."""
    ploc = PlocFunction(movement_graph)
    return [ploc(location, plan.level_for_hop(hop)) for hop in range(hops + 1)]
