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

The client keeps one record per subscription (plain or
location-dependent): its filter — or for a location-dependent one, the
location filter, movement graph, plan and location — whether it is
durable, whether some border broker has registered it, the last
sequence number delivered for it and, once a gap is seen, the gaps not
yet filled.  That is all the relocation protocol of Section 4 needs to
move it, and all the duplicate and gap checks of a durable subscription
read.  ``unsubscribe`` drops the record: a withdrawn id leaves nothing
behind, and reusing it makes a new subscription.

The client keeps every delivered notification as a row of the border
broker's trace: ``Client.received`` is a view that builds a
:class:`~repro.runtime.trace.DeliveryRecord` (delivery time, subscription,
sequence number, the notification) per row when read, which the QoS
checkers and experiments consume.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

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


class _Subscription:
    """What a client keeps of one plain subscription."""

    __slots__ = ("filter", "durable", "registered", "last_sequence", "gaps")

    def __init__(self, filter_: Any, durable: bool = False) -> None:
        self.filter = filter_
        # Durable subscriptions: at-least-once delivery with client-side
        # duplicate suppression (see ``Client.deliver``); plain ones keep
        # the at-most-once pass-through behaviour.
        self.durable = durable
        # Registered with some border broker at least once: only then
        # does ``move_to`` need the relocation protocol for it.
        self.registered = False
        self.last_sequence = 0
        # ``None`` until a gap is seen.  Each detected gap records the
        # inclusive range [previous + 1, sequence - 1] of sequence numbers
        # that were skipped; a later redelivery that falls inside a range
        # *fills* it (shrinking or splitting it), so what is left is what
        # is still actually missing.
        self.gaps: Optional[List[Tuple[int, int]]] = None

    def fill_gap(self, sequence: int) -> None:
        """A redelivery arrived for *sequence*: fill it out of any gap range."""
        if not self.gaps:
            return
        filled: List[Tuple[int, int]] = []
        for low, high in self.gaps:
            if sequence < low or sequence > high:
                filled.append((low, high))
                continue
            if low < sequence:
                filled.append((low, sequence - 1))
            if sequence < high:
                filled.append((sequence + 1, high))
        self.gaps = filled


class _LocationSubscription(_Subscription):
    """A location-dependent subscription: its filter is a location filter."""

    __slots__ = ("graph", "plan", "location")

    def __init__(
        self,
        filter_: LocationDependentFilter,
        graph: MovementGraph,
        plan: UncertaintyPlan,
        location: str,
    ) -> None:
        super().__init__(filter_)
        self.graph = graph
        self.plan = plan
        self.location = location


class Client:
    """A pub/sub client that may roam physically and/or logically."""

    __slots__ = (
        "client_id",
        "_notify_callback",
        "_broker",
        "_left_at",
        "_subscriptions",
        "_advertisements",
        "duplicates_suppressed",
        "gaps_detected",
        "_publish_seq",
        "received",
        "current_location",
        "_id_counter",
    )

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

        # Subscription bookkeeping (survives detach / re-attach): one
        # record per subscription, plain or location-dependent.
        self._subscriptions: Dict[str, _Subscription] = {}
        self._advertisements: Dict[str, Filter] = {}

        # Delivery-quality counters, read through ``counters``: duplicates
        # suppressed and sequence gaps observed on durable subscriptions.
        self.duplicates_suppressed = 0
        self.gaps_detected = 0

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
        relocated = [
            subscription_id
            for subscription_id, record in self._subscriptions.items()
            if record.registered and not isinstance(record, _LocationSubscription)
        ]
        if relocated and broker is not self._left_at and broker.strategy.floods_notifications:
            raise FloodingRelocationError(
                "client {} cannot relocate subscriptions {} on a flooding network".format(
                    self.client_id, sorted(relocated)
                )
            )
        if self._broker is not None:
            self.detach()
        self._register_at(broker, partial(broker.client_moved_subscribe, self.client_id))

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

        self._register_at(broker, takeover, durable_only=True)

    def _register_at(
        self,
        broker: Any,
        resume: Optional[Callable[[str, Filter, int], None]] = None,
        durable_only: bool = False,
    ) -> None:
        """Attach to *broker* and register everything this client holds there.

        With *resume*, a plain subscription registered before (and with
        *durable_only*, only a durable one) is handed to *resume* with its
        last received sequence number; every other one is registered as a
        plain subscription.  Location-dependent subscriptions re-register
        from scratch (combining both mobility forms is future work in the
        paper).
        """
        self._broker = broker
        self._left_at = None
        self._hold_shared_filters()
        broker.attach_client(self)
        for advertisement_id, filter_ in self._advertisements.items():
            broker.client_advertise(self.client_id, advertisement_id, filter_)
        for subscription_id, record in self._in_registration_order():
            if isinstance(record, _LocationSubscription):
                broker.client_location_dependent_subscribe(
                    self.client_id,
                    subscription_id,
                    record.filter,
                    record.graph,
                    record.plan,
                    record.location,
                )
            elif resume is not None and record.registered and (record.durable or not durable_only):
                resume(subscription_id, record.filter, record.last_sequence)
            else:
                broker.client_subscribe(self.client_id, subscription_id, record.filter)
            record.registered = True

    def _in_registration_order(self) -> List[Tuple[str, _Subscription]]:
        """Every subscription: the plain ones, then the location-dependent ones."""
        return sorted(
            self._subscriptions.items(),
            key=lambda item: isinstance(item[1], _LocationSubscription),
        )

    def _hold(self, subscription_id: str, record: _Subscription) -> None:
        """Keep *record* under *subscription_id*.

        An id already held keeps what was delivered for it: its durability,
        registration, last sequence number and gaps carry over.
        """
        previous = self._subscriptions.get(subscription_id)
        if previous is not None:
            record.durable = record.durable or previous.durable
            record.registered = previous.registered
            record.last_sequence = previous.last_sequence
            record.gaps = previous.gaps
        self._subscriptions[subscription_id] = record

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
        for key, filter_ in self._advertisements.items():
            self._advertisements[key] = caches.intern(filter_)
        for _, record in self._in_registration_order():
            if isinstance(record, _LocationSubscription):
                record.filter = shared_location_filter(caches, record.filter)
                record.graph = shared_graph(caches, record.graph)
            else:
                record.filter = caches.intern(record.filter)

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
        record = _Subscription(resolved, durable)
        self._hold(subscription_id, record)
        if self._broker is not None:
            self._broker.client_subscribe(self.client_id, subscription_id, resolved)
            record.registered = True
        return subscription_id

    def unsubscribe(self, subscription_id: str) -> None:
        """``unsub``: withdraw a subscription (plain or location-dependent)."""
        self._subscriptions.pop(subscription_id, None)
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
        record = self._subscriptions.get(subscription_id)
        if record is not None and record.durable:
            previous = record.last_sequence
            if sequence <= previous:
                self.duplicates_suppressed += 1
                record.fill_gap(sequence)
                return
            if sequence > previous + 1:
                self.gaps_detected += 1
                if record.gaps is None:
                    record.gaps = []
                record.gaps.append((previous + 1, sequence - 1))
        if row is None or not self.received.add(self._broker.trace, row):
            time = self._broker.clock.now if self._broker is not None else 0.0
            self.received.add_unrecorded(
                DeliveryRecord(time, self.client_id, subscription_id, notification, sequence)
            )
        if record is not None and sequence > record.last_sequence:
            record.last_sequence = sequence
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
        record = _LocationSubscription(location_filter, movement_graph, plan, initial_location)
        self._hold(subscription_id, record)
        self.current_location = initial_location
        if self._broker is not None:
            record.registered = True
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
        located = False
        for record in self._subscriptions.values():
            if isinstance(record, _LocationSubscription):
                record.location = location
                located = True
        if self._broker is not None and located:
            self._broker.client_set_location(self.client_id, location)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def counters(self) -> Dict[str, int]:
        """The delivery-quality counters by name (read by ``metrics/counters.py``)."""
        return {
            "duplicates_suppressed": self.duplicates_suppressed,
            "gaps_detected": self.gaps_detected,
        }

    def last_sequence(self, subscription_id: str) -> int:
        """The highest delivery sequence number seen for a subscription."""
        record = self._subscriptions.get(subscription_id)
        return 0 if record is None else record.last_sequence

    def unfilled_gap_ranges(self, subscription_id: Optional[str] = None) -> List[Tuple[int, int]]:
        """Sequence ranges detected as gaps and never filled by a redelivery.

        With *subscription_id* the ranges of that subscription; without,
        the union across subscriptions, sorted.  An empty list after an
        outage is the durable-subscriber zero-loss witness.
        """
        if subscription_id is None:
            records = list(self._subscriptions.values())
        elif subscription_id in self._subscriptions:
            records = [self._subscriptions[subscription_id]]
        else:
            records = []
        return sorted(gap for record in records for gap in record.gaps or ())

    def received_identities(self, subscription_id: Optional[str] = None) -> List[Tuple[str, int]]:
        """Identities of all received notifications (optionally one subscription)."""
        return [
            record.identity
            for record in self.received
            if subscription_id is None or record.subscription_id == subscription_id
        ]

    def subscription_ids(self) -> List[str]:
        """All active subscription identifiers (plain and location-dependent)."""
        return sorted(self._subscriptions)

    def _next_id(self, prefix: str) -> str:
        self._id_counter += 1
        return "{}-{}-{}".format(self.client_id, prefix, self._id_counter)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = self._broker.name if self._broker is not None else "<detached>"
        return "Client({} @ {}, subs={}, received={})".format(
            self.client_id,
            where,
            len(self._subscriptions),
            len(self.received),
        )
