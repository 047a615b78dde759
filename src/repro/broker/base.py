"""The broker process.

A :class:`Broker` owns

* a subscription routing table and an advertisement table
  (:class:`~repro.routing.table.RoutingTable`),
* a routing strategy (:mod:`repro.routing.strategies`) that decides which
  filters are forwarded to which neighbours,
* outgoing links to its neighbour brokers,
* registrations of locally attached clients (making it a *border broker*
  for those clients), and
* the per-subscription mobility state of both protocols: virtual
  counterparts and relocation buffers for physical mobility (Section 4),
  and :class:`~repro.core.logical.LogicalSubscriptionState` records for
  logical mobility (Section 5).

Subscription forwarding is organised around a single primitive,
:meth:`Broker.refresh_forwarding`: for a neighbour ``N`` the broker
computes the *desired* set of (filter, subject) pairs that should be
registered at ``N`` — the strategy reduces the filters, advertisements
restrict the directions — and then emits exactly the ``Subscribe`` /
``Unsubscribe`` messages needed to move from the currently forwarded set
to the desired set.  Plain subscriptions, unsubscriptions, client
attach/detach and the relocation protocol all reuse this primitive, which
keeps the broker's behaviour consistent across all of them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.location_filter import (
    LocationDependentFilter,
    LocationDependentSubscribe,
    LocationDependentUnsubscribe,
)
from repro.broker.forwarding import NeighbourForwardingState
from repro.core.logical import LogicalSubscriptionState
from repro.dispatch.plan import DispatchPlan
from repro.core.physical import RelocationBuffer, RelocationRecord, VirtualCounterpart
from repro.filters.filter import Filter, MatchNone
from repro.filters.merging import FilterCaches
from repro.broker.recovery import (
    RecoveryStore,
    ReplaySink,
    RoutingSnapshot,
    apply_snapshot,
    build_snapshot,
)
from repro.messages.admin import Advertise, Subscribe, Unadvertise, Unsubscribe
from repro.messages.base import Message
from repro.messages.control import ForwardAck, Heartbeat, SequencedForward
from repro.messages.mobility import (
    FetchRequest,
    LocationUpdate,
    MovedSubscribe,
    RelocationComplete,
    Replay,
)
from repro.messages.notification import Notification
from repro.routing.strategies import RoutingStrategy
from repro.routing.table import RoutingTable
from repro.runtime.protocols import Channel, Clock
from repro.runtime.trace import TraceRecorder
from repro.telemetry.events import HOP_DELIVER, HOP_DISPATCH, HOP_FORWARD, trace_id_of
from repro.telemetry.registry import MetricRegistry


def subscription_token(client_id: str, subscription_id: str) -> str:
    """The routing subject used for one client subscription."""
    return "{}/{}".format(client_id, subscription_id)


# ---------------------------------------------------------------------------
# Deterministic ordering of (filter key, subject) pairs
# ---------------------------------------------------------------------------
#
# ``refresh_forwarding`` sorts the Subscribe/Unsubscribe diff so message
# emission is deterministic.  Filter keys are nested tuples mixing value
# types (strings, numbers, booleans, tuples), which do not compare across
# types, so a total order needs type tagging.  Sorting by ``repr`` of the
# whole key worked but allocated a string per entry per refresh; instead we
# map each key once to a comparable type-ranked token and memoise it on the
# (immutable) filter, since the same filters recur on every refresh.


def _sortable_token(value: Any) -> Any:
    """A totally ordered, cheap-to-compare stand-in for a filter-key part."""
    if isinstance(value, tuple):
        return (3, tuple(_sortable_token(part) for part in value))
    if isinstance(value, bool):  # before int: bool is an int subclass
        return (0, 1 if value else 0)
    if isinstance(value, (int, float)):
        return (1, value)
    if isinstance(value, str):
        return (2, value)
    return (4, repr(value))


def _forwarding_sort_key(item: Tuple[Tuple[Any, str], Filter]) -> Tuple[Any, str]:
    (_, subject), filter_ = item
    token = filter_._sort_token
    if token is None:
        token = filter_._sort_token = _sortable_token(filter_.key())
    return (token, subject)


def _in_emission_order(diff: Dict[Tuple[Any, str], Filter]) -> List[Tuple[Tuple[Any, str], Filter]]:
    """The items of a forwarding diff in their deterministic emission order."""
    if len(diff) < 2:
        # Nothing to order (the norm for a pending-pair diff): do not build
        # and memoise a sort token for the filter.
        return list(diff.items())
    return sorted(diff.items(), key=_forwarding_sort_key)


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
        :meth:`Broker.takeover_subscribe` replays to a durable
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

    @property
    def token(self) -> str:
        return subscription_token(self.client_id, self.subscription_id)


@dataclass
class _ClientRegistration:
    """A locally attached (or recently detached) client."""

    client: Any
    attached: bool = True
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
        # store, ``_crashed`` gates message intake while down, and
        # ``_replaying`` suppresses journaling while the log tail is
        # re-applied on restart.
        self.recovery: Optional[RecoveryStore] = None
        self._crashed = False
        self._replaying = False
        self.crashed_at: Optional[float] = None
        self.restarted_at: Optional[float] = None

        self._init_routing_state()

        # Border-broker state.
        self._clients: Dict[str, _ClientRegistration] = {}
        self._counterparts: Dict[str, VirtualCounterpart] = {}

        # Logical mobility: token -> per-broker subscription state.
        self._logical_states: Dict[str, LogicalSubscriptionState] = {}

        # Relocation bookkeeping (benchmarks read this).
        self.relocation_records: List[RelocationRecord] = []

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
        routing tables, forwarded bookkeeping and all derived caches are
        exactly what a process crash destroys, so resetting them *is* the
        crash.  Existing links survive (they model the network's wiring,
        re-established on restart) and get fresh empty per-neighbour
        state.
        """
        self.subscription_table = RoutingTable()
        self.advertisement_table = RoutingTable()
        # Liveness: neighbour -> clock reading of the last heartbeat heard
        # from it.  Volatile on purpose — a restarted broker must re-earn
        # its lease before neighbours consider it alive again.
        self.heartbeat_last_heard: Dict[str, float] = {}
        # In-flight retention (config.forward_retention): per-neighbour
        # window of (link_seq, notification) forwards not yet acked, the
        # next outgoing link sequence, and the highest link sequence
        # processed from each neighbour.  All volatile: the *upstream*
        # copy is what protects a crashing broker's in-flight traffic.
        self._retained_forwards: Dict[str, Deque[Tuple[int, Notification]]] = {}
        self._forward_link_seq: Dict[str, int] = {}
        self._forward_recv_seq: Dict[str, int] = {}
        # neighbour -> {(filter key, subject): Filter} already forwarded there
        self._forwarded_subscriptions: Dict[str, Dict[Tuple[Any, str], Filter]] = {}
        self._forwarded_advertisements: Dict[str, Dict[Tuple[Any, str], Filter]] = {}

        # Desired forwarding sets: one NeighbourForwardingState per
        # neighbour, fed by the subscription table's row-level deltas.  A
        # subscription row of destination D contributes to the state of
        # every neighbour except D; an advertisement row of destination D
        # only gates what is forwarded *to* D.
        self._forwarding_states: Dict[str, NeighbourForwardingState] = {}
        # neighbour -> (advertisement-table epoch for that neighbour,
        #               {filter key: overlap verdict}) — see _may_forward.
        self._advertised_via_cache: Dict[str, Tuple[int, Dict[Any, bool]]] = {}
        # Bound for each neighbour's verdict dict: it is cleared (not
        # evicted entry-wise) when it grows past this, the same policy the
        # CoveringCache uses.
        self._memo_limit = 65536
        self.advertisement_table.add_listener(self._on_advertisement_rows_changed)
        if not self.strategy.floods_notifications:
            # A flooding broker forwards no subscription, so its states
            # never receive a contribution: every refresh reconciles the
            # forwarded set with an empty desired set.
            self.subscription_table.add_delta_listener(self)
        # Compiled notification data plane: a counting index over the
        # subscription table plus per-neighbour advertisement overlap
        # indexes, maintained from both tables' row-level deltas (see
        # repro.dispatch).  It counts its work in the broker's registry,
        # the same sink across crashes.
        self._dispatch_plan = DispatchPlan(
            self.subscription_table, self.advertisement_table, self.metrics.dispatch
        )
        # Fresh empty per-neighbour state for links that already exist
        # (no-op on first init, where no link is registered yet).
        for neighbour in self._links:
            self._forwarded_subscriptions[neighbour] = {}
            self._forwarded_advertisements[neighbour] = {}
            self._forwarding_states[neighbour] = self._new_forwarding_state()

    def _new_forwarding_state(self) -> NeighbourForwardingState:
        return NeighbourForwardingState(self.filter_caches, self.strategy.delta_reduction)

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
        self._forwarded_subscriptions.setdefault(link.target, {})
        self._forwarded_advertisements.setdefault(link.target, {})
        if link.target not in self._forwarding_states:
            self._forwarding_states[link.target] = self._new_forwarding_state()

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

    def link_to(self, neighbour: str) -> Channel:
        """The outgoing link to *neighbour* (raises ``KeyError`` if absent)."""
        return self._links[neighbour]

    def is_border_broker(self) -> bool:
        """``True`` when at least one client is (or was) attached here."""
        return bool(self._clients) or bool(self._counterparts)

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
        counter, journaled, interns, handler = row
        if received:
            self.counters[counter] += 1
        if journaled:
            self._journal(origin, message)
        if interns:
            # A decoded or replayed copy gives way to the live filter, on
            # the message too, since a trace keeps the message.
            message.filter = self.filter_caches.intern(message.filter)
        return handler(self, message, origin)

    def _journal(self, origin: str, message: Message) -> None:
        """Append a routing-state change to the recovery log.

        Replayed entries are not re-journaled.
        """
        if self.recovery is not None and not self._replaying:
            self.recovery.append(origin, message, self.clock.now)

    # ------------------------------------------------------------------
    # Crash / restart lifecycle
    # ------------------------------------------------------------------
    @property
    def is_crashed(self) -> bool:
        """Whether the broker is currently down (between crash and restart)."""
        return self._crashed

    def enable_recovery(self, store: Optional[RecoveryStore] = None) -> RecoveryStore:
        """Attach a recovery store; admin traffic is journaled from now on.

        *store* selects the backend — any :class:`RecoveryStore`
        implementation, e.g. a :class:`~repro.broker.recovery.
        DiskRecoveryStore`; ``None`` attaches the in-memory default.
        Enable recovery *before* routing state is built up (or take a
        snapshot right after enabling) — the log only captures traffic
        processed while the store is attached.
        """
        if self.recovery is None:
            self.recovery = store if store is not None else RecoveryStore(self.name)
        elif store is not None and store is not self.recovery:
            raise ValueError(
                "broker {} already has a recovery store attached".format(self.name)
            )
        return self.recovery

    def take_snapshot(self) -> RoutingSnapshot:
        """Checkpoint the routing state into the recovery store.

        The snapshot covers the log written so far, so the store drops
        that prefix; a subsequent restart decodes the snapshot and
        replays only the tail.
        """
        if self.recovery is None:
            raise ValueError("broker {} has no recovery store".format(self.name))
        snapshot = build_snapshot(self, log_index=self.recovery.log_index)
        self.recovery.install_snapshot(snapshot)
        return snapshot

    def crash(self) -> None:
        """Simulate a process crash: all volatile state is lost.

        The broker object survives — its name and links are the
        network's wiring, re-established on restart — but routing
        tables, forwarding bookkeeping, derived caches, client
        registrations, virtual counterparts, relocation buffers and
        logical-mobility state are gone.  Messages arriving while down
        are dropped (recorded with reason ``"broker-down"``).  The
        recovery store, modelling stable storage, survives.
        """
        if self._crashed:
            raise ValueError("broker {} is already down".format(self.name))
        self._crashed = True
        self.crashed_at = self.clock.now
        if self._telemetry is not None:
            self._telemetry.log("error", "broker crashed")
        self._init_routing_state()
        self._clients.clear()
        self._counterparts.clear()
        self._logical_states.clear()

    def restart(self) -> int:
        """Bring a crashed broker back, recovering routing state.

        Applies the stored snapshot (rows recreated with their pinned
        creation sequence numbers), then replays the log tail through
        :meth:`_apply` with every outgoing link swapped for a
        :class:`~repro.broker.recovery.ReplaySink` — the replay must
        evolve local state exactly as the first execution did without
        re-sending anything.  Derived structures are invalidated and
        rebuilt lazily from the recovered tables.  Returns the number of
        log records replayed.
        """
        if not self._crashed:
            raise ValueError("broker {} is not down".format(self.name))
        self._crashed = False
        self.restarted_at = self.clock.now
        replayed = 0
        if self.recovery is not None:
            snapshot = self.recovery.snapshot()
            if snapshot is not None:
                apply_snapshot(self, snapshot)
            tail = self.recovery.log_tail()
            real_links = self._links
            self._links = {
                neighbour: ReplaySink(self.name, neighbour) for neighbour in real_links
            }
            self._replaying = True
            try:
                for record in tail:
                    self._apply(record.entry, record.origin, received=True)
            finally:
                self._links = real_links
                self._replaying = False
            replayed = len(tail)
            self.counters["recovery_log_replayed"] += replayed
        self._invalidate_forwarding_states()
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

        The routing entries stay in place so matching notifications keep
        flowing here and get buffered — the "virtual counterpart of a
        roaming client at the last known location" of Section 4.1.

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
        if not keep_counterpart:
            return
        for record in registration.subscriptions.values():
            token = record.token
            if token in self._counterparts:
                continue
            counterpart = VirtualCounterpart(
                client_id=record.client_id,
                subscription_id=record.subscription_id,
                filter_=record.filter,
                next_sequence=record.next_sequence,
                max_buffer=self.config.counterpart_max_buffer,
            )
            counterpart.created_at = self.clock.now
            self._counterparts[token] = counterpart

    def client_subscribe(
        self, client_id: str, subscription_id: str, filter_: Filter
    ) -> None:
        """Register a plain (location-independent) subscription for a local client."""
        registration = self._require_client(client_id)
        record = _SubscriptionRecord(
            client_id=client_id, subscription_id=subscription_id, filter=filter_
        )
        registration.subscriptions[subscription_id] = record
        self._apply(Subscribe(filter_, subject=record.token), client_id)

    def client_unsubscribe(self, client_id: str, subscription_id: str) -> None:
        """Withdraw a local client's subscription and propagate the change."""
        registration = self._require_client(client_id)
        record = registration.subscriptions.pop(subscription_id, None)
        if record is None:
            return
        if record.logical is None:
            self._apply(Unsubscribe(record.filter, subject=record.token), client_id)
            return
        message = LocationDependentUnsubscribe(client_id=client_id, subscription_id=subscription_id)
        self._apply(message, client_id)
        self._refresh_all_forwarding(exclude=client_id)

    def client_advertise(self, client_id: str, advertisement_id: str, filter_: Filter) -> None:
        """Register a local client's advertisement and flood it to neighbours."""
        registration = self._require_client(client_id)
        registration.advertisements[advertisement_id] = filter_
        subject = subscription_token(client_id, advertisement_id)
        self._apply(Advertise(filter_, subject=subject), client_id)

    def client_unadvertise(self, client_id: str, advertisement_id: str) -> None:
        """Withdraw a local client's advertisement."""
        registration = self._require_client(client_id)
        filter_ = registration.advertisements.pop(advertisement_id, None)
        if filter_ is None:
            return
        subject = subscription_token(client_id, advertisement_id)
        self._apply(Unadvertise(filter_, subject=subject), client_id)

    def client_publish(self, client_id: str, notification: Notification) -> None:
        """Inject a notification published by a locally attached client."""
        self._require_client(client_id)
        if self.trace is not None:
            self.trace.record_publish(self.clock.now, notification)
        # A publish counts as received, like a notification off a link.
        self._apply(notification, client_id, received=True)

    def client_moved_subscribe(
        self,
        client_id: str,
        subscription_id: str,
        filter_: Filter,
        last_sequence: int,
    ) -> None:
        """Handle the re-issued subscription of a client that roamed to this broker.

        This is step 3 of the paper's Figure 5: the client re-issues the
        subscription together with the last received sequence number
        (``(C, F, 123)``).  Neither the client nor this broker needs to
        know the old border broker.
        """
        registration = self._require_client(client_id)
        token = subscription_token(client_id, subscription_id)
        record = _SubscriptionRecord(
            client_id=client_id,
            subscription_id=subscription_id,
            filter=filter_,
            next_sequence=last_sequence + 1,
        )
        registration.subscriptions[subscription_id] = record
        started = RelocationRecord(
            client_id=client_id,
            subscription_id=subscription_id,
            old_border=None,
            new_border=self.name,
            started_at=self.clock.now,
        )
        self.relocation_records.append(started)

        # Degenerate case: the client re-attached at its old border broker.
        local_counterpart = self._counterparts.pop(token, None)
        if local_counterpart is not None:
            # Only the table row survives a crash of this branch (the
            # counterpart is volatile), so it is applied as a plain
            # Subscribe: replaying a MovedSubscribe against a recovered
            # table without the counterpart would forward it upstream,
            # which the original execution never did.
            subscribe = Subscribe(filter_, subject=token)
            started.old_border = self.name
            replayed = local_counterpart.replay_after(last_sequence)
            for sequenced in replayed:
                self._deliver_to_client(record, sequenced.notification, sequenced.sequence)
            if replayed:
                record.next_sequence = replayed[-1].sequence + 1
            started.replayed = len(replayed)
            started.completed_at = self.clock.now
            self._apply(subscribe, client_id)
            return

        # Normal case: buffer new-path notifications until the replay
        # arrives, then register the subscription and look for the
        # junction starting at this broker.
        record.relocation_buffer = RelocationBuffer(client_id, subscription_id, last_sequence)
        moved = MovedSubscribe(
            client_id=client_id,
            subscription_id=subscription_id,
            filter_=filter_,
            last_sequence=last_sequence,
            new_border=self.name,
        )
        if not self._apply(moved, client_id):
            # No direction could possibly lead to the old location (an
            # isolated broker, or no matching advertisements at all):
            # complete the relocation immediately with an empty replay so
            # the client does not wait forever.
            record.relocation_buffer = None
            started.completed_at = self.clock.now

    def takeover_subscribe(
        self,
        client_id: str,
        subscription_id: str,
        filter_: Filter,
        last_sequence: int,
        dead_border: str,
        seen_identities: Iterable[Tuple[str, int]] = (),
    ) -> None:
        """Adopt a durable subscription whose border broker crashed.

        Neighbour takeover reuses the relocation bookkeeping but not the
        fetch/replay handshake: the old border is known to be *dead*, so
        there is no counterpart to fetch from — whatever it had buffered
        died with it (the durable guarantee is preserved because takeover
        happens while the delivery path through this broker is intact, so
        matching notifications keep flowing here rather than into the
        crashed broker).  Routing entries pointing at the dead broker are
        dropped and the client's row is added.

        With ``config.forward_retention`` on, the retained unacked window
        toward *dead_border* is the exact set of notifications that may
        have died in flight inside the crashed broker; the matching ones
        the client has not already seen (*seen_identities*, the
        ``(publisher, publisher_seq)`` pairs it received) are redelivered
        here with fresh sequence numbers — closing the in-flight loss
        window.  Without retention the relocation completes with zero
        replay, as before.
        """
        registration = self._require_client(client_id)
        token = subscription_token(client_id, subscription_id)
        record = _SubscriptionRecord(
            client_id=client_id,
            subscription_id=subscription_id,
            filter=filter_,
            next_sequence=last_sequence + 1,
        )
        registration.subscriptions[subscription_id] = record
        dead_rows = [
            row
            for row in self.subscription_table.entries_for_subject(token)
            if row.destination == dead_border
        ]
        self._divert(token, dead_rows, filter_, client_id)
        replayed = 0
        if self.config.forward_retention is not None:
            seen = set(seen_identities)
            for _, notification in list(self._retained_forwards.get(dead_border, ())):
                if notification.identity in seen:
                    continue
                if not filter_.matches(notification.attributes):
                    continue
                seen.add(notification.identity)
                sequence = record.next_sequence
                record.next_sequence += 1
                self.counters["retention_replayed"] += 1
                self._deliver_to_client(record, notification, sequence)
                replayed += 1
        now = self.clock.now
        self.relocation_records.append(
            RelocationRecord(
                client_id=client_id,
                subscription_id=subscription_id,
                old_border=dead_border,
                new_border=self.name,
                started_at=now,
                completed_at=now,
                replayed=replayed,
            )
        )
        self._refresh_all_forwarding(exclude=client_id)

    def client_location_dependent_subscribe(
        self,
        client_id: str,
        subscription_id: str,
        location_filter: LocationDependentFilter,
        movement_graph: Any,
        plan: Any,
        initial_location: str,
    ) -> None:
        """Register a location-dependent subscription for a local client (Section 5)."""
        registration = self._require_client(client_id)
        message = LocationDependentSubscribe(
            client_id=client_id,
            subscription_id=subscription_id,
            location_filter=location_filter,
            movement_graph=movement_graph,
            plan=plan,
            current_location=initial_location,
            hop_index=0,
        )
        state = self._apply(message, client_id)
        registration.subscriptions[subscription_id] = _SubscriptionRecord(
            client_id=client_id,
            subscription_id=subscription_id,
            filter=state.stored_filter,
            logical=state,
        )

    def client_set_location(self, client_id: str, new_location: str) -> None:
        """Handle a location change of a locally attached, logically mobile client."""
        registration = self._require_client(client_id)
        for record in registration.subscriptions.values():
            if record.logical is None:
                continue
            message = LocationUpdate(
                client_id=client_id,
                subscription_id=record.subscription_id,
                old_location=record.logical.current_location,
                new_location=new_location,
                hop_index=record.logical.hop_index,
            )
            self._apply(message, client_id)

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
                self._send_retained_forward(neighbour, notification, retention)

        # Local delivery (including buffering into counterparts).
        self._deliver_locally(notification, from_destination, matched_entries)

    # ------------------------------------------------------------------
    # In-flight retention (config.forward_retention)
    # ------------------------------------------------------------------
    def _send_retained_forward(
        self, neighbour: str, notification: Notification, window: int
    ) -> None:
        """Forward *notification* wrapped with a link sequence, retaining it.

        The copy stays in the per-neighbour window until the neighbour's
        cumulative ack covers it; a bounded window evicts oldest-first
        (``retention_evicted`` counts the evictions — an eviction is a
        reopened loss window, so sizing shows up in the counters).
        """
        sequence = self._forward_link_seq.get(neighbour, 0) + 1
        self._forward_link_seq[neighbour] = sequence
        buffer = self._retained_forwards.setdefault(neighbour, deque())
        buffer.append((sequence, notification))
        self.counters["forwards_retained"] += 1
        while len(buffer) > window:
            buffer.popleft()
            self.counters["retention_evicted"] += 1
        self._links[neighbour].send(
            SequencedForward(notification, sender=self.name, link_seq=sequence)
        )

    def _handle_sequenced_forward(
        self, message: SequencedForward, from_destination: Optional[str]
    ) -> None:
        """Unwrap a retained forward, process it, and ack it cumulatively."""
        if from_destination is not None:
            previous = self._forward_recv_seq.get(from_destination, 0)
            self._forward_recv_seq[from_destination] = max(previous, message.link_seq)
        self._handle_notification(message.notification, from_destination)
        if from_destination in self._links and not self._replaying:
            self._links[from_destination].send(
                ForwardAck(
                    sender=self.name,
                    upto=self._forward_recv_seq.get(from_destination, message.link_seq),
                )
            )

    def _handle_forward_ack(
        self, message: ForwardAck, from_destination: Optional[str]
    ) -> None:
        buffer = self._retained_forwards.get(from_destination)
        if not buffer:
            return
        while buffer and buffer[0][0] <= message.upto:
            buffer.popleft()
            self.counters["forwards_acked"] += 1

    def retained_forwards(self, neighbour: str) -> List[Tuple[int, Notification]]:
        """The currently retained (unacked) window toward *neighbour*."""
        return list(self._retained_forwards.get(neighbour, ()))

    # ------------------------------------------------------------------
    # Heartbeats (liveness beacons consumed by the failure detector)
    # ------------------------------------------------------------------
    def emit_heartbeats(self) -> None:
        """Send one :class:`Heartbeat` to every neighbour (no-op while down)."""
        if self._crashed:
            return
        now = self.clock.now
        for neighbour in self.neighbours():
            self.counters["heartbeats_sent"] += 1
            self._links[neighbour].send(Heartbeat(sender=self.name, sent_at=now))

    def _handle_heartbeat(
        self, message: Heartbeat, from_destination: Optional[str]
    ) -> None:
        if from_destination is not None:
            self.heartbeat_last_heard[from_destination] = self.clock.now

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
        for entry in sorted(matched_entries, key=_entry_sort_key):
            destination = entry.destination
            if destination in self._links or destination == from_destination:
                continue
            registration = self._clients.get(destination)
            for token in sorted(entry.subjects):
                counterpart = self._counterparts.get(token)
                if counterpart is not None:
                    counterpart.buffer(notification)
                    self.counters["notifications_buffered_counterpart"] += 1
                    continue
                if registration is None or not registration.attached:
                    continue
                client_id, _, subscription_id = token.partition("/")
                record = registration.subscriptions.get(subscription_id)
                if record is None:
                    continue
                if record.relocation_buffer is not None and not record.relocation_buffer.complete:
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

    # ------------------------------------------------------------------
    # Plain subscription / advertisement handling
    # ------------------------------------------------------------------
    def _handle_subscribe(self, message: Subscribe, from_destination: str) -> None:
        self.subscription_table.add(message.filter, from_destination, message.subject)
        self._refresh_all_forwarding(exclude=from_destination)

    def _handle_unsubscribe(self, message: Unsubscribe, from_destination: str) -> None:
        self.subscription_table.remove(message.filter, from_destination, message.subject)
        self._refresh_all_forwarding(exclude=from_destination)

    def _handle_advertise(self, message: Advertise, from_destination: str) -> None:
        self.advertisement_table.add(message.filter, from_destination, message.subject)
        self._forward_advertisement(message, from_destination, withdraw=False)
        if from_destination in self._links:
            # Subscriptions may now become forwardable toward the advertiser.
            self.refresh_forwarding(from_destination)
            self._reforward_logical_subscriptions(toward=from_destination)

    def _handle_unadvertise(self, message: Unadvertise, from_destination: str) -> None:
        self.advertisement_table.remove(message.filter, from_destination, message.subject)
        self._forward_advertisement(message, from_destination, withdraw=True)
        if from_destination in self._links:
            self.refresh_forwarding(from_destination)

    def _forward_advertisement(self, message: Any, exclude: str, withdraw: bool) -> None:
        """Pass an (un)advertisement on to every neighbour but *exclude* that lacks (holds) it."""
        filter_ = message.filter
        key = (filter_.key(), message.subject)
        for neighbour in self.neighbours():
            forwarded = self._forwarded_advertisements[neighbour]
            if neighbour == exclude or (key in forwarded) != withdraw:
                continue
            if withdraw:
                del forwarded[key]
            else:
                forwarded[key] = filter_
            self._links[neighbour].send(
                type(message)(filter_, subject=self.name, subscription_id=message.subject)
            )

    # ------------------------------------------------------------------
    # Subscription forwarding (the strategy-driven refresh primitive)
    # ------------------------------------------------------------------
    def _on_advertisement_rows_changed(self, destination: Optional[str]) -> None:
        """Advertisement delta: rows of *destination* changed.

        Advertisements received from ``N`` gate which filters enter the
        input of ``N``'s forwarding state, and the per-filter verdicts may
        flip wholesale, so that state is rebuilt from the table on its
        next refresh.
        """
        if destination is None:
            self._invalidate_forwarding_states()
            return
        state = self._forwarding_states.get(destination)
        if state is not None:
            state.valid = False

    def _invalidate_forwarding_states(self) -> None:
        """Have every neighbour's state rebuilt from the table on its next refresh."""
        for state in self._forwarding_states.values():
            state.valid = False

    def _is_logical_row(self, row, subject: str) -> bool:
        """Whether *row* is the one a location-dependent *subject* is stored in.

        That row travels by the Section 5 protocol, not by the generic
        refresh; tested per row, so that writing, moving and removing it
        changes no forwarding state's input.
        """
        state = self._logical_states.get(subject)
        return state is not None and state.owns(row)

    # ------------------------------------------------------------------
    # Routing-table delta listener (see RoutingTable.add_delta_listener):
    # applies row-level changes directly to the cached per-neighbour
    # desired sets, making routing changes O(affected entries).
    # ------------------------------------------------------------------
    def row_subject_added(self, row, subject: str, created_row: bool) -> None:
        if isinstance(row.filter, MatchNone) or self._is_logical_row(row, subject):
            return
        filter_ = row.filter
        destination = row.destination
        for neighbour, state in self._forwarding_states.items():
            if neighbour == destination or not state.valid:
                continue
            if self._may_forward(neighbour, filter_):
                state.add_contribution(filter_, subject, row.seq)

    def row_subjects_removed(self, row, subjects: Sequence[str], removed_row: bool) -> None:
        if isinstance(row.filter, MatchNone):
            return
        plain = [subject for subject in subjects if not self._is_logical_row(row, subject)]
        if not plain:
            return
        filter_ = row.filter
        filter_key = filter_.key()
        destination = row.destination
        for neighbour, state in self._forwarding_states.items():
            if neighbour == destination or not state.valid:
                continue
            if not self._may_forward(neighbour, filter_):
                continue
            for subject in plain:
                state.remove_contribution(filter_key, subject, row.seq)

    def table_reset(self) -> None:
        self._invalidate_forwarding_states()

    def _refresh_all_forwarding(self, exclude: Optional[str] = None) -> None:
        for neighbour in self.neighbours():
            if neighbour == exclude:
                continue
            self.refresh_forwarding(neighbour)

    def refresh_forwarding(self, neighbour: str) -> None:
        """Bring the subscriptions forwarded to *neighbour* in line with the tables."""
        if neighbour not in self._links:
            # Not a neighbour (e.g. a locally attached client named as the
            # source of a replayed log entry): nothing is forwarded there.
            return
        state = self._forwarding_states[neighbour]
        if state.settled():
            return
        if not state.valid:
            self._rebuild_forwarding_state(neighbour, state)
        elif state.order_dirty:
            # Canonical input positions shifted (a filter's first
            # contributing row died while later rows survived) or a
            # merging state's input filters changed structurally:
            # re-reduce from the maintained entries — no table scan.
            state.rebuild_reduction()
        forwarded = self._forwarded_subscriptions[neighbour]
        to_add, to_remove = state.diff_against(forwarded)
        self._emit_forwarding_diff(neighbour, forwarded, to_add, to_remove)

    def _emit_forwarding_diff(
        self,
        neighbour: str,
        forwarded: Dict[Tuple[Any, str], Filter],
        to_add: Dict[Tuple[Any, str], Filter],
        to_remove: Dict[Tuple[Any, str], Filter],
    ) -> None:
        link = self._links[neighbour]
        # Subscribe before unsubscribing so covering replacements never
        # leave a gap in which matching notifications would not be routed.
        for (filter_key, subject), filter_ in _in_emission_order(to_add):
            forwarded[(filter_key, subject)] = filter_
            link.send(Subscribe(filter_, subject=subject))
        for (filter_key, subject), filter_ in _in_emission_order(to_remove):
            del forwarded[(filter_key, subject)]
            link.send(Unsubscribe(filter_, subject=subject))

    def _rebuild_forwarding_state(self, neighbour: str, state: NeighbourForwardingState) -> None:
        """Rebuild a neighbour's state from one subscription-table scan.

        The gating here is the one :meth:`row_subject_added` /
        :meth:`row_subjects_removed` apply row by row: a ``MatchNone``
        filter accepts nothing, so forwarding it would only cost
        administrative traffic; the rows of location-dependent
        subscriptions are propagated by their own protocol
        (``LocationDependentSubscribe`` / ``LocationUpdate``); and a filter
        only travels toward a neighbour that advertised something
        overlapping it.
        """
        no_logical = not self._logical_states

        def plain_subjects(row):
            if row.destination == neighbour or isinstance(row.filter, MatchNone):
                return None
            if no_logical:
                subjects = row.subjects
            else:
                subjects = [
                    subject for subject in row.subjects if not self._is_logical_row(row, subject)
                ]
                if not subjects:
                    return None
            return subjects if self._may_forward(neighbour, row.filter) else None

        # A flooding broker forwards no subscription: no row contributes.
        rows = () if self.strategy.floods_notifications else self.subscription_table.entries()
        state.rebuild_from_rows(rows, plain_subjects)

    def _may_forward(self, neighbour: str, filter_: Filter) -> bool:
        """Whether *filter_* may travel toward *neighbour*.

        Without advertisements it always may; with them, only toward a
        neighbour an overlapping advertisement was received from.  That
        verdict is memoised per (neighbour, filter key); the memo for a
        neighbour is discarded wholesale whenever that neighbour's
        advertisement rows change (tracked by the table's per-destination
        epoch), so it can never go stale.  Memo misses are answered by
        the dispatch plan's per-neighbour overlap index.
        """
        if not self.config.use_advertisements:
            return True
        epoch = self.advertisement_table.destination_epoch(neighbour)
        cached = self._advertised_via_cache.get(neighbour)
        if cached is None or cached[0] != epoch:
            cached = (epoch, {})
            self._advertised_via_cache[neighbour] = cached
        verdicts = cached[1]
        key = filter_.key()
        verdict = verdicts.get(key)
        if verdict is None:
            self.counters["advert_gate_misses"] += 1
            if len(verdicts) >= self._memo_limit:
                verdicts.clear()
            verdict = verdicts[key] = self._dispatch_plan.advertised_via(neighbour, filter_)
        else:
            self.counters["advert_gate_hits"] += 1
        return verdict

    # ------------------------------------------------------------------
    # Physical mobility: relocation protocol (Section 4)
    # ------------------------------------------------------------------
    def _token_rows(self, token: str, exclude: str) -> List[Any]:
        """The first routing row of *token* per destination but *exclude*, by destination."""
        rows: Dict[str, Any] = {}
        for row in self.subscription_table.entries_for_subject(token):
            if row.destination != exclude:
                rows.setdefault(row.destination, row)
        return [rows[destination] for destination in sorted(rows)]

    def _divert(self, token: str, rows: Sequence[Any], filter_: Filter, destination: str) -> None:
        """Move *token* off *rows* onto one row of *filter_* toward *destination*.

        Each write is journaled as the Unsubscribe / Subscribe it amounts
        to.  The caller refreshes the forwarding once, when it is done.
        """
        for row in rows:
            self._journal(row.destination, Unsubscribe(row.filter, subject=token))
            self.subscription_table.remove(row.filter, row.destination, token)
        self._journal(destination, Subscribe(filter_, subject=token))
        self.subscription_table.add(filter_, destination, token)

    def _forward_moved_subscribe(self, message: MovedSubscribe, exclude: str) -> int:
        """Propagate a MovedSubscribe toward producers (it must find the junction).

        Returns the number of neighbours the message was forwarded to.
        """
        token = subscription_token(message.client_id, message.subscription_id)
        count = 0
        for neighbour in self.neighbours():
            if neighbour == exclude or not self._may_forward(neighbour, message.filter):
                continue
            pair = (message.filter.key(), token)
            self._forwarded_subscriptions[neighbour][pair] = message.filter
            # Written behind refresh_forwarding's back: have its next diff
            # look at the pair (an Unsubscribe if it is not desired).
            self._forwarding_states[neighbour].pending.add(pair)
            self._links[neighbour].send(message)
            count += 1
        return count

    def _handle_moved_subscribe(self, message: MovedSubscribe, from_destination: str) -> bool:
        """Register the roamer's row and find the junction (Section 4.1).

        Returns whether the relocation is under way: this broker is the
        junction, or the message went on toward at least one producer.
        """
        token = subscription_token(message.client_id, message.subscription_id)
        old_rows = self._token_rows(token, exclude=from_destination)
        self.subscription_table.add(message.filter, from_destination, token)
        if old_rows:
            # This broker already lies on the old delivery path: it is the
            # junction itself.
            self._act_as_junction(token, message.filter, message.last_sequence, old_rows)
            under_way = True
        else:
            if from_destination in self._clients:
                # A roaming client's own message is its journal record;
                # the one that travels on is the broker's.
                message = MovedSubscribe(
                    client_id=message.client_id,
                    subscription_id=message.subscription_id,
                    filter_=message.filter,
                    last_sequence=message.last_sequence,
                    new_border=message.new_border,
                )
            under_way = self._forward_moved_subscribe(message, exclude=from_destination) > 0
        self._refresh_all_forwarding(exclude=from_destination)
        return under_way

    def _act_as_junction(
        self, token: str, filter_: Filter, last_sequence: int, old_rows: Sequence[Any]
    ) -> None:
        """Junction behaviour: divert the old path and request the replay.

        The junction removes its routing entries toward the old location,
        sends a fetch request along each of them, and from this moment on
        routes newly received notifications along the new path only
        (Section 4.1: "already starts routing all newly received
        notifications from P along the new path").
        """
        client_id, _, subscription_id = token.partition("/")
        for row in old_rows:
            destination = row.destination
            self.subscription_table.remove(row.filter, destination, token)
            if destination not in self._links:
                # The "old path" ends right here: this broker hosts the
                # virtual counterpart (it is the old border broker).
                self._replay_counterpart(token, last_sequence, toward=None)
                continue
            self.counters["fetch_requests_sent"] += 1
            self._links[destination].send(
                FetchRequest(
                    client_id=client_id,
                    subscription_id=subscription_id,
                    filter_=filter_,
                    last_sequence=last_sequence,
                    junction=self.name,
                    new_border=self.name,
                )
            )

    def _handle_fetch_request(self, message: FetchRequest, from_destination: str) -> None:
        token = subscription_token(message.client_id, message.subscription_id)
        rows = list(self.subscription_table.entries_for_subject(token))
        if token in self._counterparts:
            # The old border broker: divert our routing entry for the token
            # toward the fetch sender so that the replay (and any straggler
            # notifications) flow back toward the junction and on to the
            # new location, then replay the buffered notifications.
            self._divert(token, rows, message.filter, from_destination)
            self._replay_counterpart(token, message.last_sequence, toward=from_destination)
            self._refresh_all_forwarding(exclude=from_destination)
            return
        if all(row.destination == from_destination for row in rows):
            # Nothing known about this subscription (already cleaned up, or
            # a duplicate fetch from a second junction): drop the request.
            return
        # An intermediate broker on the old path: divert the routing entry
        # toward the fetch sender and forward the fetch along the old path.
        link_bound = [
            row
            for row in rows
            if row.destination != from_destination and row.destination in self._links
        ]
        self._divert(token, link_bound, message.filter, from_destination)
        for row in link_bound:
            self._links[row.destination].send(message)
        if not link_bound:
            # The remaining entries point at locally attached clients, not
            # along an old path — this happens when the old border crashed
            # and the subscription was adopted here by takeover.  There is
            # no counterpart anywhere (it died with the old border), so
            # terminate the protocol: answer with an empty replay so the
            # requester's relocation buffer flushes instead of waiting
            # forever.  The local client rows are left untouched.
            self._send_replay(token, [], toward=from_destination)
        self._refresh_all_forwarding(exclude=from_destination)

    def _replay_counterpart(self, token: str, last_sequence: int, toward: Optional[str]) -> None:
        """Ship the buffered suffix back toward the new location and clean up."""
        counterpart = self._counterparts.pop(token, None)
        if counterpart is None:
            return
        self._send_replay(token, counterpart.replay_after(last_sequence), toward)
        # The old client registration (if any) can now be garbage collected.
        client_id, _, subscription_id = token.partition("/")
        registration = self._clients.get(client_id)
        if registration is not None and not registration.attached:
            registration.subscriptions.pop(subscription_id, None)
            if not registration.subscriptions:
                self._clients.pop(client_id, None)

    def _send_replay(self, token: str, notifications: Sequence[Any], toward: Optional[str]) -> None:
        """Answer a fetch: a Replay of *notifications*, then RelocationComplete.

        Both go to the neighbour *toward*; without one (the junction is
        this broker itself) they are routed along the token's rows.
        """
        client_id, _, subscription_id = token.partition("/")
        self.counters["replays_sent"] += 1
        replay = Replay(client_id, subscription_id, notifications, origin_border=self.name)
        complete = RelocationComplete(client_id, subscription_id, origin_border=self.name)
        for message in (replay, complete):
            if toward in self._links:
                self._links[toward].send(message)
            else:
                self._handle_relocation_message(message, None)

    def _handle_relocation_message(self, message: Any, from_destination: Optional[str]) -> None:
        """Route a Replay / RelocationComplete on along its token's rows.

        A row toward a local client ends the path: this is the new border
        broker, and the message feeds the client's relocation buffer.
        """
        token = subscription_token(message.client_id, message.subscription_id)
        for row in self.subscription_table.entries_for_subject(token):
            destination = row.destination
            if destination == from_destination:
                continue
            if destination in self._links:
                self._links[destination].send(message)
            else:
                self._relocation_message_arrived(message, token)

    def _relocation_message_arrived(self, message: Any, token: str) -> None:
        """A Replay fills the relocation buffer; a RelocationComplete flushes it."""
        client_id, _, subscription_id = token.partition("/")
        registration = self._clients.get(client_id)
        if registration is None:
            return
        record = registration.subscriptions.get(subscription_id)
        if record is None or record.relocation_buffer is None:
            return
        if type(message) is Replay:
            record.relocation_buffer.accept_replay(message.notifications)
            return
        replayed, fresh = record.relocation_buffer.flush()
        for sequenced in replayed:
            self._deliver_to_client(record, sequenced.notification, sequenced.sequence)
        if replayed:
            record.next_sequence = max(record.next_sequence, replayed[-1].sequence + 1)
        for notification in fresh:
            sequence = record.next_sequence
            record.next_sequence += 1
            self._deliver_to_client(record, notification, sequence)
        record.relocation_buffer = None
        for relocation in reversed(self.relocation_records):
            if (
                relocation.client_id == client_id
                and relocation.subscription_id == subscription_id
                and relocation.completed_at is None
            ):
                relocation.completed_at = self.clock.now
                relocation.old_border = message.origin_border
                relocation.replayed = len(replayed)
                relocation.fresh = len(fresh)
                break

    # ------------------------------------------------------------------
    # Logical mobility (Section 5)
    # ------------------------------------------------------------------
    def _store_logical_row(
        self, state: LogicalSubscriptionState, filter_: Optional[Filter]
    ) -> None:
        """Move *state*'s routing row to *filter_* (``None``: remove it).

        The only writer of these rows: ``stored_filter`` names the row at
        every table mutation, which is what :meth:`_is_logical_row` reads.
        """
        table = self.subscription_table
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

    def _reforward_logical_subscriptions(self, toward: str) -> None:
        """Forward held location-dependent subscriptions toward a newly advertised direction.

        A location-dependent subscription issued before the matching
        advertisement has propagated cannot be forwarded immediately; when
        the advertisement later arrives from *toward*, the subscription is
        sent after it (the same late binding the generic
        :meth:`refresh_forwarding` performs for plain subscriptions).
        """
        if self.strategy.floods_notifications:
            return
        for state in self._logical_states.values():
            if state.destination == toward or toward in state.forwarded_to:
                # Sending it back where it came from would replace the
                # state it came from; sending it twice would do nothing.
                continue
            if self._may_forward(toward, state.location_filter.base_filter):
                state.forwarded_to += (toward,)
                self._links[toward].send(state.subscribe_message(state.hop_index + 1))

    def _handle_location_dependent_subscribe(
        self, message: LocationDependentSubscribe, from_destination: str
    ) -> LogicalSubscriptionState:
        state = LogicalSubscriptionState.from_subscribe(
            message, from_destination, self.filter_caches
        )
        # The state holds the network's live filter and graph; so does the
        # message (a trace keeps it), and with it every hop it is sent on.
        message.location_filter, message.movement_graph = (
            state.location_filter,
            state.movement_graph,
        )
        replaced = self._logical_states.get(state.token)
        if replaced is not None:
            self._store_logical_row(replaced, None)
        # Registered before its row is written, so the row is never plain.
        self._logical_states[state.token] = state
        self._store_logical_row(state, state.current_filter())
        forward = message.for_next_hop()
        # Under flooding, notifications reach every broker anyway; the
        # location-dependent part degenerates to pure client-side
        # filtering at the border broker (Figure 3b).
        if not self.strategy.floods_notifications:
            base_filter = state.location_filter.base_filter
            for neighbour in self.neighbours():
                if neighbour != from_destination and self._may_forward(neighbour, base_filter):
                    state.forwarded_to += (neighbour,)
                    self._links[neighbour].send(forward)
        return state

    def _handle_location_dependent_unsubscribe(
        self, message: LocationDependentUnsubscribe, from_destination: Optional[str]
    ) -> None:
        state = self._logical_states.get(
            subscription_token(message.client_id, message.subscription_id)
        )
        if state is None:
            return
        # The row goes before the token is forgotten, so it is never plain.
        self._store_logical_row(state, None)
        del self._logical_states[state.token]
        forward = LocationDependentUnsubscribe(
            client_id=state.client_id, subscription_id=state.subscription_id
        )
        for neighbour in state.forwarded_to:
            if neighbour in self._links:
                self._links[neighbour].send(forward)

    def _handle_location_update(
        self, message: LocationUpdate, from_destination: Optional[str]
    ) -> None:
        state = self._logical_states.get(
            subscription_token(message.client_id, message.subscription_id)
        )
        if state is None:
            return
        old_location, new_location = state.current_location, message.new_location
        delta = state.apply_location_change(new_location)

        # Update the stored routing entry (and, at the border broker, the
        # client-side filter used for exact delivery filtering).
        self._store_logical_row(state, delta.new_filter)
        registration = self._clients.get(state.client_id)
        if registration is not None:
            record = registration.subscriptions.get(state.subscription_id)
            if record is not None and record.logical is state:
                record.filter = delta.new_filter

        # Decide whether the update needs to travel further toward the
        # producers.  The next hop's filter changes iff ploc at its level
        # differs between old and new location.
        if not self.config.propagate_unchanged_location_updates and state.location_set(
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
        for neighbour in state.forwarded_to:
            if neighbour != from_destination and neighbour in self._links:
                self._links[neighbour].send(update)

    # ------------------------------------------------------------------
    # Introspection helpers used by tests, experiments and benchmarks
    # ------------------------------------------------------------------
    def routing_table_size(self) -> int:
        """Number of rows in the subscription routing table."""
        return len(self.subscription_table)

    def forwarded_subscription_count(self, neighbour: str) -> int:
        """Number of (filter, subject) pairs currently forwarded to *neighbour*."""
        return len(self._forwarded_subscriptions.get(neighbour, {}))

    def counterpart_for(self, client_id: str, subscription_id: str) -> Optional[VirtualCounterpart]:
        """The virtual counterpart for a subscription, if one exists here."""
        return self._counterparts.get(subscription_token(client_id, subscription_id))

    def has_counterparts(self) -> bool:
        """``True`` when any virtual counterpart is currently held here."""
        return bool(self._counterparts)

    def logical_state_for(
        self, client_id: str, subscription_id: str
    ) -> Optional[LogicalSubscriptionState]:
        """The logical-mobility state for a subscription, if this broker has one."""
        return self._logical_states.get(subscription_token(client_id, subscription_id))

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
    #: journaled, interns its filter, handler)``, read by :meth:`_apply`.
    #: The routing state is a function of the journaled messages alone.
    #: Notifications are not among them (durable redelivery is the
    #: counterparts' and sequence numbers' job), nor is control traffic
    #: (liveness and retention windows are volatile by design).  A
    #: FetchRequest's table effect depends on volatile state (is there a
    #: counterpart here?), so its handler journals the Unsubscribe /
    #: Subscribe writes of the branch it took.  Replay and
    #: RelocationComplete change no routing state: they fill relocation
    #: buffers, which a crash clears.
    _MESSAGE_TABLE: Dict[type, Tuple[str, bool, bool, Callable[..., Any]]] = {
        Notification: ("notifications_received", False, False, _handle_notification),
        SequencedForward: ("notifications_received", False, False, _handle_sequenced_forward),
        ForwardAck: ("control_received", False, False, _handle_forward_ack),
        Heartbeat: ("control_received", False, False, _handle_heartbeat),
        Subscribe: ("admin_received", True, True, _handle_subscribe),
        Unsubscribe: ("admin_received", True, True, _handle_unsubscribe),
        Advertise: ("admin_received", True, True, _handle_advertise),
        Unadvertise: ("admin_received", True, True, _handle_unadvertise),
        MovedSubscribe: ("mobility_received", True, True, _handle_moved_subscribe),
        FetchRequest: ("mobility_received", False, True, _handle_fetch_request),
        Replay: ("mobility_received", False, False, _handle_relocation_message),
        RelocationComplete: ("mobility_received", False, False, _handle_relocation_message),
        LocationDependentSubscribe: (
            "mobility_received",
            True,
            False,
            _handle_location_dependent_subscribe,
        ),
        LocationDependentUnsubscribe: (
            "mobility_received",
            True,
            False,
            _handle_location_dependent_unsubscribe,
        ),
        LocationUpdate: ("mobility_received", True, False, _handle_location_update),
    }
