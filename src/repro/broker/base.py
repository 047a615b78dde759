"""The broker process.

A :class:`Broker` owns

* a subscription routing table and an advertisement table
  (:class:`~repro.routing.table.RoutingTable`),
* a routing strategy (:mod:`repro.routing.strategies`) that decides which
  filters are forwarded to which neighbours,
* outgoing links to its neighbour brokers,
* registrations of locally attached clients (making it a *border broker*
  for those clients) and their relocation buffers,
* the notification path: the dispatch plan matches each notification
  once, and the matched rows say where it is forwarded and to whom it is
  delivered, and
* four components, each beside the state it owns and declaring its rows
  of :attr:`Broker._MESSAGE_TABLE`: :class:`~repro.broker.forwarding.
  SubscriptionForwarding` (Section 2.2's subscription and advertisement
  forwarding), :class:`~repro.core.physical.PhysicalMobility`
  (Section 4), :class:`~repro.core.logical.LogicalMobility` (Section 5)
  and :class:`~repro.broker.recovery.Reliability` (journal, retention
  window, heartbeats).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.location_filter import LocationDependentUnsubscribe
from repro.broker.forwarding import SubscriptionForwarding
from repro.core.logical import LogicalMobility, LogicalSubscriptionState
from repro.dispatch.plan import DispatchPlan
from repro.core.physical import PhysicalMobility, RelocationBuffer
from repro.filters.filter import Filter
from repro.filters.merging import FilterCaches
from repro.broker.recovery import RecoveryStore, Reliability
from repro.messages.admin import Advertise, Subscribe, Unadvertise, Unsubscribe
from repro.messages.base import Message, MessageIds
from repro.messages.mobility import subscription_token
from repro.messages.notification import Notification
from repro.routing.strategies import RoutingStrategy
from repro.routing.table import RoutingTable
from repro.runtime.protocols import Channel, Clock
from repro.runtime.trace import TraceRecorder
from repro.telemetry.events import HOP_DELIVER, HOP_DISPATCH, HOP_FORWARD, trace_id_of
from repro.telemetry.registry import MetricRegistry


def _entry_sort_key(entry: Any) -> Tuple[str, int]:
    """Stable order for matched routing rows: destination, then creation seq."""
    return (entry.destination, entry.seq)


@dataclass
class BrokerConfig:
    """Tunable broker behaviour.

    Parameters
    ----------
    use_advertisements:
        When ``True`` (the default), subscriptions are only forwarded
        toward neighbours from which an overlapping advertisement was
        received.  This is what allows the relocation protocol to tear
        down the now-unused parts of the old delivery path (Section 4.1's
        garbage-collection guarantee).
    counterpart_max_buffer:
        Bound on the virtual counterpart buffer; ``None`` means unbounded
        (the paper's idealised completeness).
    propagate_unchanged_location_updates:
        When ``True`` (the paper's conservative assumption behind
        Figure 9), a location change generates an administrative message on
        every link of the subscription path even if the corresponding
        ``ploc`` set did not change; when ``False``, propagation stops at
        the first hop whose upstream filter is unaffected (an ablation).
    forward_retention:
        When set to an integer ``W``, every broker→broker notification
        forward is wrapped in a :class:`~repro.messages.control.
        SequencedForward` and *retained* (at most ``W`` per neighbour,
        oldest evicted first) until the receiving broker's cumulative
        :class:`~repro.messages.control.ForwardAck` releases it.  The
        retained, unacknowledged window is what
        :meth:`~repro.core.physical.PhysicalMobility.takeover_subscribe` replays to a durable
        subscriber failing over from a crashed neighbour — closing the
        in-flight loss window the paper's failure-free model never had
        to consider.  ``None`` (the default) keeps the paper's bare
        forwards: no wrapper, no acks, no retention.
    """

    use_advertisements: bool = True
    counterpart_max_buffer: Optional[int] = None
    propagate_unchanged_location_updates: bool = True
    forward_retention: Optional[int] = None


@dataclass
class _SubscriptionRecord:
    """Border-broker bookkeeping for one locally attached subscription."""

    client_id: str
    subscription_id: str
    filter: Filter
    next_sequence: int = 1
    relocation_buffer: Optional[RelocationBuffer] = None
    logical: Optional[LogicalSubscriptionState] = None
    token: str = field(init=False)

    def __post_init__(self) -> None:
        self.token = subscription_token(self.client_id, self.subscription_id)


@dataclass
class _ClientRegistration:
    """A locally attached (or recently detached) client."""

    client: Any
    attached: bool = True
    #: token -> record
    subscriptions: Dict[str, _SubscriptionRecord] = field(default_factory=dict)
    advertisements: Dict[str, Filter] = field(default_factory=dict)


class Broker:
    """One broker of the content-based pub/sub network."""

    def __init__(
        self,
        name: str,
        clock: Clock,
        strategy: RoutingStrategy,
        trace: Optional[TraceRecorder] = None,
        config: Optional[BrokerConfig] = None,
        filter_caches: Optional[FilterCaches] = None,
        ids: Optional[MessageIds] = None,
    ) -> None:
        self.name = name
        self.clock = clock
        self.strategy = strategy
        self.trace = trace
        self.config = config or BrokerConfig()
        # Covering / merge-pair memos and the live-filter table: the
        # network's, shared by all of its brokers; a broker built on its
        # own gets its own.
        self.filter_caches = filter_caches if filter_caches is not None else FilterCaches()
        # The message-id source every message this broker, its components
        # and its clients build is stamped from: the network's, shared by
        # all of its brokers; a broker built on its own gets its own.
        self.ids = ids if ids is not None else MessageIds()

        # Observability: every broker owns one metric registry (the
        # single home for its instrumentation); ``counters`` below is the
        # registry's counter dict, so existing increment sites feed it
        # directly.  ``_telemetry`` is the per-broker event emitter,
        # attached by the network only when telemetry is enabled — every
        # event hook is a single ``is not None`` check when it is not.
        self.metrics = MetricRegistry(name)
        self._telemetry: Optional[Any] = None

        # Channel management: neighbour broker name -> outgoing channel.
        self._links: Dict[str, Channel] = {}

        # Crash recovery: ``recovery`` holds the (optional) persistent
        # store, which survives a crash; ``_crashed`` gates message intake
        # while down.
        self.recovery: Optional[RecoveryStore] = None
        self._crashed = False

        self._init_routing_state()

        # Counters used by tests and diagnostics.  This is *the same
        # dict* as ``self.metrics.counters`` — the registry sees every
        # increment without a second write.
        self.counters: Dict[str, int] = self.metrics.counters
        self.counters.update({
            "notifications_received": 0,
            "notifications_forwarded": 0,
            "notifications_delivered": 0,
            "notifications_buffered_counterpart": 0,
            "notifications_buffered_relocation": 0,
            "admin_received": 0,
            "mobility_received": 0,
            "fetch_requests_sent": 0,
            "replays_sent": 0,
            "advert_gate_hits": 0,
            "advert_gate_misses": 0,
            "messages_dropped_down": 0,
            "recovery_log_replayed": 0,
            "control_received": 0,
            "heartbeats_sent": 0,
            "forwards_retained": 0,
            "forwards_acked": 0,
            "retention_evicted": 0,
            "retention_replayed": 0,
        })

    def _init_routing_state(self) -> None:
        """(Re)create every piece of volatile routing state.

        Called once from ``__init__`` and again by :meth:`crash`: the
        routing tables, the dispatch plan, client registrations and the
        four components are exactly what a process
        crash destroys, so building them anew *is* the crash.  Existing
        links survive (they model the network's wiring, re-established on
        restart) and get fresh empty per-neighbour state.
        """
        self.subscription_table = RoutingTable()
        self.advertisement_table = RoutingTable()
        self._clients: Dict[str, _ClientRegistration] = {}
        self.physical = PhysicalMobility(self)
        self.logical = LogicalMobility(self)
        self.reliability = Reliability(self)
        # Fresh empty per-neighbour state, also for links that already exist.
        self.forwarding = SubscriptionForwarding(self)
        # Compiled notification data plane: a counting index over the
        # subscription table, maintained from its row-level deltas (see
        # repro.dispatch).  It counts its work in the broker's registry,
        # the same sink across crashes.
        self._dispatch_plan = DispatchPlan(self.subscription_table, self.metrics.dispatch)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def add_link(self, link: Channel) -> None:
        """Register the outgoing link to a neighbour broker."""
        if link.source != self.name:
            raise ValueError(
                "link source {} does not match broker {}".format(link.source, self.name)
            )
        self._links[link.target] = link
        self.forwarding.add_neighbour(link.target)

    def attach_telemetry(self, telemetry: Optional[Any]) -> None:
        """Attach (or with ``None``, detach) the per-broker event emitter.

        *telemetry* is a :class:`repro.telemetry.emitter.BrokerTelemetry`
        (duck-typed here to keep the broker's imports lean); while
        attached, the broker emits span/log events through it.
        """
        self._telemetry = telemetry

    def neighbours(self) -> List[str]:
        """Names of neighbouring brokers, sorted."""
        return sorted(self._links)

    # ------------------------------------------------------------------
    # Message entry points
    # ------------------------------------------------------------------
    def receive(self, message: Message, link: Channel) -> None:
        """Handle a message arriving over a broker-to-broker link."""
        if self._crashed:
            # A crashed process reads nothing off the wire; the message
            # is lost (and attributed) exactly like a link-level drop.
            self.counters["messages_dropped_down"] += 1
            if self.trace is not None:
                self.trace.record_drop(
                    self.clock.now, link.source, self.name, message, "broker-down"
                )
            return
        self._apply(message, link.source, received=True)

    def receive_batch(self, messages: Sequence[Message], link: Channel) -> None:
        """:meth:`receive` each of *messages* in order.

        No link calls this; it stays because the end-to-end benchmark's
        span table names it, and a missing name there counts as an
        unresolved target.
        """
        for message in messages:
            self.receive(message, link)

    def _apply(self, message: Message, origin: str, received: bool = False) -> Any:
        """Apply one message from *origin* through its row of :attr:`_MESSAGE_TABLE`.

        The one way into the broker: a link (:meth:`receive`), the
        recovery log on :meth:`restart` and every client operation all
        come here.  The row says whether the message is journaled and
        whether it carries a filter to swap for the network's live one;
        its handler does the rest, and what the handler returns is
        returned.  With *received* the row's counter counts it.
        """
        row = self._MESSAGE_TABLE.get(type(message))
        if row is None:
            raise TypeError("broker {} cannot handle message {!r}".format(self.name, message))
        counter, journaled, interns, component, handler = row
        if received:
            self.counters[counter] += 1
        if journaled:
            self.reliability.journal(origin, message)
        if interns:
            # A decoded or replayed copy gives way to the live filter, on
            # the message too, since a trace keeps the message.
            message.filter = self.filter_caches.intern(message.filter)
        return handler(self if component is None else getattr(self, component), message, origin)

    # ------------------------------------------------------------------
    # Crash / restart lifecycle
    # ------------------------------------------------------------------
    @property
    def is_crashed(self) -> bool:
        """Whether the broker is currently down (between crash and restart)."""
        return self._crashed

    def crash(self) -> None:
        """Simulate a process crash: all volatile state is lost.

        The broker object survives — its name and links are the network's
        wiring — but everything :meth:`_init_routing_state` builds is built
        anew.  Messages arriving while down are dropped (recorded with
        reason ``"broker-down"``).  The recovery store, modelling stable
        storage, survives.
        """
        if self._crashed:
            raise ValueError("broker {} is already down".format(self.name))
        self._crashed = True
        if self._telemetry is not None:
            self._telemetry.log("error", "broker crashed")
        self._init_routing_state()

    def restart(self) -> int:
        """Bring a crashed broker back, recovering routing state.

        The recovery store's snapshot and log tail rebuild the tables
        (:meth:`~repro.broker.recovery.Reliability.recover`); derived
        structures are invalidated and rebuilt lazily from them.  Returns
        the number of log records replayed.
        """
        if not self._crashed:
            raise ValueError("broker {} is not down".format(self.name))
        self._crashed = False
        replayed = self.reliability.recover()
        self.forwarding.invalidate()
        if self._telemetry is not None:
            self._telemetry.log(
                "info", "broker restarted ({} log records replayed)".format(replayed)
            )
        return replayed

    def attached_clients(self) -> List[Any]:
        """The currently attached client objects (crash orchestration)."""
        return [
            registration.client
            for registration in self._clients.values()
            if registration.attached
        ]

    # ------------------------------------------------------------------
    # Client-facing API (the border-broker side of the client library)
    # ------------------------------------------------------------------
    def attach_client(self, client: Any) -> None:
        """Attach *client* (an object exposing ``client_id`` and ``deliver``)."""
        client_id = client.client_id
        registration = self._clients.get(client_id)
        if registration is None:
            self._clients[client_id] = _ClientRegistration(client=client)
        else:
            registration.client = client
            registration.attached = True

    def detach_client(self, client_id: str, keep_counterpart: bool = True) -> None:
        """Detach a client, converting its subscriptions into virtual counterparts.

        With ``keep_counterpart=False`` the broker keeps the routing
        entries but buffers nothing; matching notifications arriving for
        the absent client are simply lost.  This is the behaviour of an
        unmodified pub/sub system and is only used by the naive-roaming
        baseline that reproduces Figure 2.
        """
        registration = self._clients.get(client_id)
        if registration is None:
            return
        registration.attached = False
        if keep_counterpart:
            self.physical.keep_counterparts(registration.subscriptions.values())

    def _add_subscription(
        self, client_id: str, subscription_id: str, filter_: Filter, next_sequence: int = 1
    ) -> _SubscriptionRecord:
        """Record a subscription of the attached client *client_id*."""
        registration = self._require_client(client_id)
        record = _SubscriptionRecord(client_id, subscription_id, filter_, next_sequence)
        registration.subscriptions[record.token] = record
        return record

    def client_subscribe(
        self, client_id: str, subscription_id: str, filter_: Filter
    ) -> None:
        """Register a plain (location-independent) subscription for a local client."""
        record = self._add_subscription(client_id, subscription_id, filter_)
        self._apply(self.ids.stamp(Subscribe(filter_, subject=record.token)), client_id)

    def client_unsubscribe(self, client_id: str, subscription_id: str) -> None:
        """Withdraw a local client's subscription and propagate the change."""
        registration = self._require_client(client_id)
        token = subscription_token(client_id, subscription_id)
        record = registration.subscriptions.pop(token, None)
        if record is None:
            return
        if record.logical is None:
            self._apply(self.ids.stamp(Unsubscribe(record.filter, subject=token)), client_id)
            return
        message = LocationDependentUnsubscribe(client_id=client_id, subscription_id=subscription_id)
        self._apply(self.ids.stamp(message), client_id)
        self.forwarding.refresh_all(exclude=client_id)

    def client_advertise(self, client_id: str, advertisement_id: str, filter_: Filter) -> None:
        """Register a local client's advertisement and flood it to neighbours."""
        registration = self._require_client(client_id)
        registration.advertisements[advertisement_id] = filter_
        subject = subscription_token(client_id, advertisement_id)
        self._apply(self.ids.stamp(Advertise(filter_, subject=subject)), client_id)

    def client_unadvertise(self, client_id: str, advertisement_id: str) -> None:
        """Withdraw a local client's advertisement."""
        registration = self._require_client(client_id)
        filter_ = registration.advertisements.pop(advertisement_id, None)
        if filter_ is None:
            return
        subject = subscription_token(client_id, advertisement_id)
        self._apply(self.ids.stamp(Unadvertise(filter_, subject=subject)), client_id)

    def client_publish(self, client_id: str, notification: Notification) -> None:
        """Inject a notification published by a locally attached client."""
        self._require_client(client_id)
        if self.trace is not None:
            self.trace.record_publish(self.clock.now, notification)
        # A publish counts as received, like a notification off a link.
        self._apply(notification, client_id, received=True)

    # A client's mobility operations belong to their components; the
    # broker keeps their names, by which the e2e benchmark times them.
    def client_moved_subscribe(self, *args: Any) -> None:
        """:meth:`~repro.core.physical.PhysicalMobility.client_moved_subscribe`."""
        self.physical.client_moved_subscribe(*args)

    def client_location_dependent_subscribe(self, *args: Any) -> None:
        """:meth:`~repro.core.logical.LogicalMobility.client_location_dependent_subscribe`."""
        self.logical.client_location_dependent_subscribe(*args)

    def client_set_location(self, *args: Any) -> None:
        """:meth:`~repro.core.logical.LogicalMobility.client_set_location`."""
        self.logical.client_set_location(*args)

    # ------------------------------------------------------------------
    # Notification handling
    # ------------------------------------------------------------------
    def _handle_notification(
        self, notification: Notification, from_destination: Optional[str]
    ) -> None:
        """Forward and deliver one notification."""
        # One counting pass answers both questions: which neighbours the
        # notification must be forwarded to, and which local rows it is
        # delivered against.
        matched_entries = self._dispatch_plan.match(notification.attributes)
        if self.strategy.floods_notifications:
            forward_to = set(self._links)
        else:
            forward_to = {
                entry.destination
                for entry in matched_entries
                if entry.destination in self._links
            }
        if from_destination in forward_to:
            forward_to.discard(from_destination)
        telemetry = self._telemetry
        if telemetry is not None:
            telemetry.span(
                trace_id_of(notification),
                HOP_DISPATCH,
                peer=from_destination,
                attrs={
                    "matched": len(matched_entries),
                    "forwards": len(forward_to),
                    "local_origin": from_destination not in self._links,
                },
            )
            self.metrics.observe("dispatch_fanout", len(forward_to))
        retention = self.config.forward_retention
        for neighbour in sorted(forward_to):
            self.counters["notifications_forwarded"] += 1
            if telemetry is not None:
                telemetry.span(trace_id_of(notification), HOP_FORWARD, peer=neighbour)
            if retention is None:
                self._links[neighbour].send(notification)
            else:
                self.reliability.send_retained_forward(neighbour, notification, retention)

        # Local delivery (including buffering into counterparts).
        self._deliver_locally(notification, from_destination, matched_entries)

    def _deliver_locally(
        self,
        notification: Notification,
        from_destination: Optional[str],
        matched_entries: Sequence[Any],
    ) -> None:
        # The dispatch plan returns the matched rows in index order, which
        # depends on the churn that built it; sort on the stable (row
        # destination, row creation seq) key so delivery order — and with
        # it every trace — is deterministic.
        counterparts = self.physical.counterparts
        for entry in sorted(matched_entries, key=_entry_sort_key):
            destination = entry.destination
            if destination in self._links or destination == from_destination:
                continue
            registration = self._clients.get(destination)
            for token in sorted(entry.subjects):
                counterpart = counterparts.get(token)
                if counterpart is not None:
                    self.ids.stamp(counterpart.buffer(notification))
                    self.counters["notifications_buffered_counterpart"] += 1
                    continue
                if registration is None or not registration.attached:
                    continue
                record = registration.subscriptions.get(token)
                if record is None:
                    continue
                if record.relocation_buffer is not None:
                    record.relocation_buffer.hold(notification)
                    self.counters["notifications_buffered_relocation"] += 1
                    continue
                sequence = record.next_sequence
                record.next_sequence += 1
                self._deliver_to_client(record, notification, sequence)

    def _deliver_to_client(
        self, record: _SubscriptionRecord, notification: Notification, sequence: int
    ) -> None:
        registration = self._clients.get(record.client_id)
        if registration is None or not registration.attached:
            return
        self.counters["notifications_delivered"] += 1
        if self._telemetry is not None:
            self._telemetry.span(
                trace_id_of(notification),
                HOP_DELIVER,
                peer=record.client_id,
                attrs={"sequence": sequence},
            )
        # One trace row per delivery; the client's ``received`` keeps its number.
        row = None
        if self.trace is not None:
            row = self.trace.record_delivery(
                self.clock.now, record.client_id, record.subscription_id, notification, sequence
            )
        registration.client.deliver(record.subscription_id, notification, sequence, row)

    def refresh_forwarding(self, neighbour: str) -> None:
        """``SubscriptionForwarding.refresh``; every refresh enters here."""
        self.forwarding.refresh(neighbour)

    # ------------------------------------------------------------------
    # Introspection helpers used by tests, experiments and benchmarks
    # ------------------------------------------------------------------
    def routing_table_size(self) -> int:
        """Number of rows in the subscription routing table."""
        return len(self.subscription_table)

    def _require_client(self, client_id: str) -> _ClientRegistration:
        registration = self._clients.get(client_id)
        if registration is None or not registration.attached:
            raise ValueError(
                "client {} is not attached to broker {}".format(client_id, self.name)
            )
        return registration

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Broker({}, strategy={}, clients={}, table={})".format(
            self.name, self.strategy.name, sorted(self._clients), len(self.subscription_table)
        )

    # ------------------------------------------------------------------
    # The message table: how each message a broker link carries enters
    # ------------------------------------------------------------------
    #: ``type(message) -> (counter of its kind's received messages,
    #: journaled, interns its filter, component, handler)``, read by
    #: :meth:`_apply`.  *component* names the broker attribute whose
    #: object the handler is a method of (``None``: the broker itself);
    #: each component declares its rows beside its handlers.
    #: The routing state is a function of the journaled messages alone.
    #: Notifications are not among them (durable redelivery is the
    #: counterparts' and sequence numbers' job), nor is control traffic
    #: (liveness and retention windows are volatile by design).
    _MESSAGE_TABLE: Dict[type, Tuple[str, bool, bool, Optional[str], Callable[..., Any]]] = {
        Notification: ("notifications_received", False, False, None, _handle_notification),
        **SubscriptionForwarding.MESSAGES,
        **PhysicalMobility.MESSAGES,
        **LogicalMobility.MESSAGES,
        **Reliability.MESSAGES,
    }
