"""The client library (the paper's *local broker*).

A :class:`Client` offers the four pub/sub primitives of Section 2.1 —
``pub``, ``sub``, ``unsub`` and the ``notify`` callback — plus the two
mobility-facing operations this reproduction adds on top:

* :meth:`Client.move_to` — physical mobility: detach from the current
  border broker (possibly much earlier, via :meth:`Client.detach`) and
  re-attach at a new one.  The client automatically re-issues its
  subscriptions together with the last received sequence numbers, which is
  all the relocation protocol of Section 4 needs.  The *interface* of the
  pub/sub system is unchanged, as the paper requires.
* :meth:`Client.set_location` — logical mobility: declare the client's new
  application-level location so that its location-dependent subscriptions
  (Section 5) adapt automatically.

The client keeps every delivered notification as a row of the border
broker's trace: ``Client.received`` is a view that builds a
:class:`~repro.runtime.trace.DeliveryRecord` (delivery time, subscription,
sequence number, the notification) per row when read, which the QoS
checkers and experiments consume.
"""

from __future__ import annotations

from functools import partial
from typing import AbstractSet, Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.core.adaptivity import UncertaintyPlan
from repro.core.location_filter import LocationDependentFilter
from repro.core.logical import shared_graph, shared_location_filter
from repro.core.ploc import MovementGraph
from repro.filters.filter import Filter
from repro.messages.notification import Notification
from repro.runtime.trace import DeliveryRecord, ReceivedRecords


class ClientError(RuntimeError):
    """Raised for invalid client operations (e.g. publishing while detached)."""


class FloodingRelocationError(ClientError):
    """:meth:`Client.move_to` would relocate a subscription on a flooding network.

    Section 4's relocation finds its junction along routed rows, which a
    flooding network never builds: the relocation could never complete.
    """


class Client:
    """A pub/sub client that may roam physically and/or logically."""

    def __init__(
        self,
        client_id: str,
        notify: Optional[Callable[[str, Notification, int], None]] = None,
    ) -> None:
        if "/" in client_id:
            # Keeps repro.messages.mobility.subscription_token unique.
            raise ValueError("client id {!r} must not contain '/'".format(client_id))
        self.client_id = client_id
        self._notify_callback = notify
        self._broker: Optional[Any] = None  # the current border Broker
        self._left_at: Optional[Any] = None  # the broker last detached from

        # Subscription bookkeeping (survives detach / re-attach).
        self._subscriptions: Dict[str, Filter] = {}
        self._logical_subscriptions: Dict[str, Dict[str, Any]] = {}
        self._advertisements: Dict[str, Filter] = {}
        self._last_sequence: Dict[str, int] = {}
        # Subscriptions that have been registered with some border broker at
        # least once; only those need the relocation protocol on move_to.
        self._registered_once: set = set()
        # Durable subscriptions: at-least-once delivery with client-side
        # duplicate suppression (see ``deliver``); plain subscriptions
        # keep the at-most-once pass-through behaviour.
        self._durable: set = set()

        # Delivery-quality counters, read by metrics/counters.py:
        # duplicates suppressed and sequence gaps observed on durable
        # subscriptions.
        self.counters: Dict[str, int] = {
            "duplicates_suppressed": 0,
            "gaps_detected": 0,
        }
        # Per-subscription gap ranges: each detected gap records the
        # half-open-on-nothing inclusive range [previous + 1, sequence - 1]
        # of sequence numbers that were skipped.  A later redelivery that
        # falls inside a recorded range *fills* it (shrinking or
        # splitting), so ``unfilled_gap_ranges`` reports what is still
        # actually missing — the observable the in-flight-window fix is
        # verified against.
        self._gap_ranges: Dict[str, List[Tuple[int, int]]] = {}

        # Publishing state.
        self._publish_seq = 0

        # Everything ever delivered to this client, in delivery order.
        self.received = ReceivedRecords()

        # Logical location (``None`` until set_location is called).
        self.current_location: Optional[str] = None

        self._id_counter = 0

    # ------------------------------------------------------------------
    # Attachment / physical mobility
    # ------------------------------------------------------------------
    @property
    def attached(self) -> bool:
        """``True`` when the client currently has a border broker."""
        return self._broker is not None

    @property
    def border_broker(self) -> Optional[Any]:
        """The broker this client is attached to, or ``None``."""
        return self._broker

    def attach(self, broker: Any) -> None:
        """Attach to *broker* for the first time (no relocation handling).

        Existing subscriptions and advertisements are registered as plain
        subscriptions; use :meth:`move_to` when the client has already
        received notifications elsewhere and the relocation protocol should
        run.
        """
        if self._broker is not None:
            raise ClientError("client {} is already attached".format(self.client_id))
        self._register_at(broker)

    def detach(self) -> None:
        """Disconnect from the current border broker (power saving, out of range).

        The border broker keeps a virtual counterpart for each subscription
        so no matching notification is lost while the client is away.
        """
        if self._broker is None:
            return
        self._broker.detach_client(self.client_id)
        self._left_at = self._broker
        self._broker = None

    def move_to(self, broker: Any) -> None:
        """Physically roam to a new border broker.

        If still attached somewhere, the client first detaches (it may also
        have detached long ago).  At the new broker every subscription is
        re-issued together with its last received sequence number, which
        triggers the relocation protocol of Section 4.  On a flooding
        network that protocol has no routed rows to follow, so moving a
        registered subscription to a broker other than the one it left
        raises :class:`FloodingRelocationError` and changes nothing.
        """
        if self._broker is broker:
            return
        # A subscription never registered has no old location: a plain
        # subscription suffices for it.
        relocated = self._registered_once.intersection(self._subscriptions)
        if relocated and broker is not self._left_at and broker.strategy.floods_notifications:
            raise FloodingRelocationError(
                "client {} cannot relocate subscriptions {} on a flooding network".format(
                    self.client_id, sorted(relocated)
                )
            )
        if self._broker is not None:
            self.detach()
        moved = partial(broker.client_moved_subscribe, self.client_id)
        self._register_at(broker, moved, set(self._registered_once))

    def drop_connection(self) -> None:
        """Sever the link to a crashed border broker (no detach handshake).

        Unlike :meth:`detach` this performs no broker-side call — the
        broker is gone, so no virtual counterpart exists.  The client
        keeps its subscription bookkeeping and last sequence numbers;
        use :meth:`move_to` (after the broker restarts) or
        :meth:`failover_to` (neighbour takeover) to reconnect.
        """
        self._broker = None

    def failover_to(self, broker: Any, dead_border: str) -> None:
        """Emergency re-attach after the border broker *dead_border* crashed.

        Durable subscriptions are adopted by the takeover broker via
        :meth:`~repro.core.physical.PhysicalMobility.takeover_subscribe` (the dead
        broker's routing entries are dropped, no fetch is attempted —
        nothing is left to fetch from).  Plain subscriptions are
        re-issued as fresh subscriptions: at-most-once semantics permit
        the loss of whatever was in flight.
        """
        if self._broker is not None:
            raise ClientError(
                "client {} must drop its connection before failing over".format(
                    self.client_id
                )
            )

        def takeover(subscription_id: str, filter_: Filter, last_sequence: int) -> None:
            seen = self.received_identities(subscription_id)
            broker.physical.takeover_subscribe(
                self.client_id, subscription_id, filter_, last_sequence, dead_border, seen
            )

        self._register_at(broker, takeover, self._durable & self._registered_once)

    def _register_at(
        self,
        broker: Any,
        resume: Optional[Callable[[str, Filter, int], None]] = None,
        resumable: AbstractSet[str] = frozenset(),
    ) -> None:
        """Attach to *broker* and register everything this client holds there.

        A subscription in *resumable* is handed to *resume* with its last
        received sequence number, every other one is registered as a plain
        subscription.  Location-dependent subscriptions re-register from
        scratch (combining both mobility forms is future work in the paper).
        """
        self._broker = broker
        self._left_at = None
        self._hold_shared_filters()
        broker.attach_client(self)
        for advertisement_id, filter_ in self._advertisements.items():
            broker.client_advertise(self.client_id, advertisement_id, filter_)
        for subscription_id, filter_ in self._subscriptions.items():
            if subscription_id in resumable:
                resume(subscription_id, filter_, self._last_sequence.get(subscription_id, 0))
            else:
                broker.client_subscribe(self.client_id, subscription_id, filter_)
                self._registered_once.add(subscription_id)
        for subscription_id, spec in self._logical_subscriptions.items():
            broker.client_location_dependent_subscribe(
                self.client_id,
                subscription_id,
                spec["filter"],
                spec["graph"],
                spec["plan"],
                spec["location"],
            )
            self._registered_once.add(subscription_id)

    def _shared(self, filter_: Filter) -> Filter:
        """*filter_*, or while attached the network's live equal one."""
        if self._broker is None:
            return filter_
        return self._broker.filter_caches.intern(filter_)

    def _hold_shared_filters(self) -> None:
        """Swap every held filter and graph for the new border's network's live one.

        The client then pays no memory of its own for a filter others
        hold too (see :class:`~repro.filters.merging.FilterCaches`).
        """
        caches = self._broker.filter_caches
        for held in (self._advertisements, self._subscriptions):
            for key, filter_ in held.items():
                held[key] = caches.intern(filter_)
        for spec in self._logical_subscriptions.values():
            spec["filter"] = shared_location_filter(caches, spec["filter"])
            spec["graph"] = shared_graph(caches, spec["graph"])

    # ------------------------------------------------------------------
    # The four pub/sub primitives
    # ------------------------------------------------------------------
    def subscribe(
        self,
        filter_: Any,
        subscription_id: Optional[str] = None,
        durable: bool = False,
    ) -> str:
        """``sub``: register interest in notifications matching *filter_*.

        *filter_* may be a :class:`~repro.filters.filter.Filter` or a plain
        template mapping.  Returns the subscription identifier.

        With ``durable=True`` the subscription gets at-least-once
        semantics across broker crashes: on reconnect it is re-issued
        with the last received sequence number, redelivered duplicates
        are suppressed client-side (counted in ``counters``), and
        sequence gaps are detected.  Plain subscriptions stay
        at-most-once: whatever arrives is delivered verbatim, including
        the duplicate/miss anomalies the naive-roaming baseline
        deliberately exhibits.
        """
        resolved = self._shared(filter_ if isinstance(filter_, Filter) else Filter(filter_))
        subscription_id = subscription_id or self._next_id("sub")
        self._subscriptions[subscription_id] = resolved
        self._last_sequence.setdefault(subscription_id, 0)
        if durable:
            self._durable.add(subscription_id)
        if self._broker is not None:
            self._broker.client_subscribe(self.client_id, subscription_id, resolved)
            self._registered_once.add(subscription_id)
        return subscription_id

    def unsubscribe(self, subscription_id: str) -> None:
        """``unsub``: withdraw a subscription (plain or location-dependent)."""
        self._subscriptions.pop(subscription_id, None)
        self._logical_subscriptions.pop(subscription_id, None)
        self._last_sequence.pop(subscription_id, None)
        self._durable.discard(subscription_id)
        if self._broker is not None:
            self._broker.client_unsubscribe(self.client_id, subscription_id)

    def publish(self, attributes: Mapping[str, Any]) -> Notification:
        """``pub``: inject a notification described by *attributes*."""
        if self._broker is None:
            raise ClientError("client {} cannot publish while detached".format(self.client_id))
        self._publish_seq += 1
        notification = self._broker.ids.stamp(
            Notification(
                attributes=attributes,
                publisher=self.client_id,
                publisher_seq=self._publish_seq,
                publish_time=self._broker.clock.now,
            )
        )
        self._broker.client_publish(self.client_id, notification)
        return notification

    def deliver(
        self,
        subscription_id: str,
        notification: Notification,
        sequence: int,
        row: Optional[int] = None,
    ) -> None:
        """``notify``: called by the border broker to deliver a notification.

        *row* is this delivery's row in the border broker's trace, and is
        what ``received`` keeps.  Without one (a broker without a recorder,
        or a caller that is not a broker) the client logs the delivery into
        a private recorder of its own.

        For durable subscriptions the client enforces the at-least-once
        contract's client-facing half: a sequence number at or below the
        last delivered one is a redelivery and is suppressed (the
        application sees each notification once), and a jump past
        ``last + 1`` is counted as a detected gap (the notification is
        still delivered — gaps are a diagnostic, not a reason to drop
        data).  Plain subscriptions pass everything through verbatim.
        """
        if subscription_id in self._durable:
            previous = self._last_sequence.get(subscription_id, 0)
            if sequence <= previous:
                self.counters["duplicates_suppressed"] += 1
                self._fill_gap(subscription_id, sequence)
                return
            if sequence > previous + 1:
                self.counters["gaps_detected"] += 1
                self._gap_ranges.setdefault(subscription_id, []).append(
                    (previous + 1, sequence - 1)
                )
        if row is None or not self.received.add(self._broker.trace, row):
            time = self._broker.clock.now if self._broker is not None else 0.0
            self.received.add_unrecorded(
                DeliveryRecord(time, self.client_id, subscription_id, notification, sequence)
            )
        previous = self._last_sequence.get(subscription_id, 0)
        if sequence > previous:
            self._last_sequence[subscription_id] = sequence
        if self._notify_callback is not None:
            self._notify_callback(subscription_id, notification, sequence)

    # ------------------------------------------------------------------
    # Advertisements
    # ------------------------------------------------------------------
    def advertise(self, filter_: Any, advertisement_id: Optional[str] = None) -> str:
        """Announce the notifications this client is about to publish."""
        resolved = self._shared(filter_ if isinstance(filter_, Filter) else Filter(filter_))
        advertisement_id = advertisement_id or self._next_id("adv")
        self._advertisements[advertisement_id] = resolved
        if self._broker is not None:
            self._broker.client_advertise(self.client_id, advertisement_id, resolved)
        return advertisement_id

    def unadvertise(self, advertisement_id: str) -> None:
        """Withdraw a previously issued advertisement."""
        self._advertisements.pop(advertisement_id, None)
        if self._broker is not None:
            self._broker.client_unadvertise(self.client_id, advertisement_id)

    # ------------------------------------------------------------------
    # Logical mobility
    # ------------------------------------------------------------------
    def subscribe_location_dependent(
        self,
        template: Mapping[str, Any],
        movement_graph: MovementGraph,
        plan: UncertaintyPlan,
        initial_location: str,
        location_attribute: str = "location",
        vicinity: int = 0,
        subscription_id: Optional[str] = None,
    ) -> str:
        """Register a location-dependent subscription (``location ∈ myloc``).

        *template* is an ordinary filter template; the location attribute
        either carries the :data:`~repro.core.location_filter.MYLOC` marker
        or is omitted and named via *location_attribute*.
        """
        location_filter = LocationDependentFilter(
            template, location_attribute=location_attribute, vicinity=vicinity
        )
        if self._broker is not None:
            caches = self._broker.filter_caches
            location_filter = shared_location_filter(caches, location_filter)
            movement_graph = shared_graph(caches, movement_graph)
        subscription_id = subscription_id or self._next_id("locsub")
        self._logical_subscriptions[subscription_id] = {
            "filter": location_filter,
            "graph": movement_graph,
            "plan": plan,
            "location": initial_location,
        }
        self._last_sequence.setdefault(subscription_id, 0)
        self.current_location = initial_location
        if self._broker is not None:
            self._registered_once.add(subscription_id)
            self._broker.client_location_dependent_subscribe(
                self.client_id,
                subscription_id,
                location_filter,
                movement_graph,
                plan,
                initial_location,
            )
        return subscription_id

    def set_location(self, location: str) -> None:
        """Declare a new application-level location (logical mobility)."""
        self.current_location = location
        for spec in self._logical_subscriptions.values():
            spec["location"] = location
        if self._broker is not None and self._logical_subscriptions:
            self._broker.client_set_location(self.client_id, location)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def last_sequence(self, subscription_id: str) -> int:
        """The highest delivery sequence number seen for a subscription."""
        return self._last_sequence.get(subscription_id, 0)

    def _fill_gap(self, subscription_id: str, sequence: int) -> None:
        """A redelivery arrived for *sequence*: fill it out of any gap range."""
        ranges = self._gap_ranges.get(subscription_id)
        if not ranges:
            return
        filled: List[Tuple[int, int]] = []
        for low, high in ranges:
            if sequence < low or sequence > high:
                filled.append((low, high))
                continue
            if low < sequence:
                filled.append((low, sequence - 1))
            if sequence < high:
                filled.append((sequence + 1, high))
        self._gap_ranges[subscription_id] = filled

    def unfilled_gap_ranges(self, subscription_id: Optional[str] = None) -> List[Tuple[int, int]]:
        """Sequence ranges detected as gaps and never filled by a redelivery.

        With *subscription_id* the ranges of that subscription; without,
        the union across subscriptions, sorted.  An empty list after an
        outage is the durable-subscriber zero-loss witness.
        """
        if subscription_id is not None:
            return sorted(self._gap_ranges.get(subscription_id, []))
        collected: List[Tuple[int, int]] = []
        for ranges in self._gap_ranges.values():
            collected.extend(ranges)
        return sorted(collected)

    def received_identities(self, subscription_id: Optional[str] = None) -> List[Tuple[str, int]]:
        """Identities of all received notifications (optionally one subscription)."""
        return [
            record.identity
            for record in self.received
            if subscription_id is None or record.subscription_id == subscription_id
        ]

    def subscription_ids(self) -> List[str]:
        """All active subscription identifiers (plain and location-dependent)."""
        return sorted(list(self._subscriptions) + list(self._logical_subscriptions))

    def _next_id(self, prefix: str) -> str:
        self._id_counter += 1
        return "{}-{}-{}".format(self.client_id, prefix, self._id_counter)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = self._broker.name if self._broker is not None else "<detached>"
        return "Client({} @ {}, subs={}, received={})".format(
            self.client_id,
            where,
            len(self._subscriptions) + len(self._logical_subscriptions),
            len(self.received),
        )
