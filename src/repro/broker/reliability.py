"""One broker's reliability: the journal hook, the retention window, heartbeats.

:class:`Reliability` is always built with the broker, and its three
message rows (:class:`~repro.messages.control.SequencedForward`,
:class:`~repro.messages.control.ForwardAck` and
:class:`~repro.messages.control.Heartbeat`) are always in
``Broker._MESSAGE_TABLE``.  The store it journals into, the snapshot and
their codec live in :mod:`repro.broker.recovery`, which is imported only
when recovery is first enabled (:meth:`Reliability.enable_recovery`) or a
snapshot is taken or restored: a broker without a store never loads it.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque, Dict, List, Optional, Tuple

from repro.messages.base import Message
from repro.messages.control import ForwardAck, Heartbeat, SequencedForward
from repro.messages.notification import Notification

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.broker.recovery import RecoveryStore, RoutingSnapshot


class Reliability:
    """One broker's crash recovery, in-flight retention window and heartbeats.

    Everything held here is volatile: the broker builds a new one with the
    rest of its routing state.  The store this journals into is the
    broker's ``recovery``, which stands for stable storage and survives.
    """

    def __init__(self, broker: Any) -> None:
        self.broker = broker
        #: Set while a restart replays the log tail: nothing is journaled
        #: again, and no ack goes out.
        self.replaying = False
        #: Liveness: neighbour -> clock reading of the last heartbeat heard
        #: from it.  A restarted broker must re-earn its lease.
        self.heartbeat_last_heard: Dict[str, float] = {}
        # In-flight retention (config.forward_retention): per-neighbour
        # window of (link_seq, notification) forwards not yet acked, the
        # next outgoing link sequence, and the highest link sequence
        # processed from each neighbour.  The *upstream* copy is what
        # protects a crashing broker's in-flight traffic.
        self._retained_forwards: Dict[str, Deque[Tuple[int, Notification]]] = {}
        self._forward_link_seq: Dict[str, int] = {}
        self._forward_recv_seq: Dict[str, int] = {}

    def journal(self, origin: str, message: Message) -> None:
        """Append a routing-state change to the recovery log (not while replaying it)."""
        broker = self.broker
        store = broker.recovery
        if store is not None and not self.replaying:
            store.append(origin, message)

    def enable_recovery(self, store: Optional[RecoveryStore] = None) -> RecoveryStore:
        """Attach a recovery store; admin traffic is journaled from now on.

        *store* selects the backend — any
        :class:`~repro.broker.recovery.RecoveryStore` implementation, e.g. a
        :class:`~repro.broker.recovery.DiskRecoveryStore`; ``None`` attaches
        the in-memory default, the first use of :mod:`repro.broker.recovery`.
        Enable recovery *before* routing state is built up (or take a
        snapshot right after enabling) — the log only captures traffic
        processed while the store is attached.
        """
        broker = self.broker
        if broker.recovery is None:
            if store is None:
                from repro.broker.recovery import RecoveryStore

                store = RecoveryStore(broker.name)
            broker.recovery = store
        elif store is not None and store is not broker.recovery:
            raise ValueError(
                "broker {} already has a recovery store attached".format(broker.name)
            )
        return broker.recovery

    def take_snapshot(self) -> RoutingSnapshot:
        """Checkpoint the routing state into the recovery store.

        The snapshot covers the log written so far, so the store drops
        that prefix; a subsequent restart decodes the snapshot and
        replays only the tail.
        """
        broker = self.broker
        if broker.recovery is None:
            raise ValueError("broker {} has no recovery store".format(broker.name))
        from repro.broker.recovery import RoutingSnapshot, table_rows

        forwarded_subscriptions, forwarded_advertisements = broker.forwarding.snapshot()
        snapshot = RoutingSnapshot(
            broker=broker.name,
            taken_at=broker.clock.now,
            log_index=broker.recovery.log_index,
            subscription_rows=table_rows(broker.subscription_table),
            subscription_row_seq=broker.subscription_table.row_seq,
            advertisement_rows=table_rows(broker.advertisement_table),
            advertisement_row_seq=broker.advertisement_table.row_seq,
            forwarded_subscriptions=forwarded_subscriptions,
            forwarded_advertisements=forwarded_advertisements,
            logical_states=broker.logical.snapshot_entries(),
        )
        broker.recovery.install_snapshot(snapshot)
        return snapshot

    def recover(self) -> int:
        """Rebuild the routing state of a freshly crashed broker from its store.

        Applies the stored snapshot, then replays the log tail through
        ``Broker._apply`` with every outgoing link swapped for a
        :class:`~repro.broker.recovery.ReplaySink` — the replay must evolve
        local state exactly as the first execution did without re-sending
        anything.  Returns the number of log records replayed.
        """
        broker = self.broker
        if broker.recovery is None:
            return 0
        from repro.broker.recovery import ReplaySink

        snapshot = broker.recovery.snapshot()
        if snapshot is not None:
            self._restore(snapshot)
        tail = broker.recovery.log_tail()
        real_links = broker._links
        broker._links = {neighbour: ReplaySink(broker.name, neighbour) for neighbour in real_links}
        self.replaying = True
        try:
            for record in tail:
                broker._apply(record.entry, record.origin, received=True)
        finally:
            broker._links = real_links
            self.replaying = False
        broker.counters["recovery_log_replayed"] += len(tail)
        return len(tail)

    def _restore(self, snapshot: RoutingSnapshot) -> None:
        """Restore the broker's tables and forwarded sets from *snapshot*.

        The broker's tables must be empty (freshly crashed); rows are
        recreated in snapshot order with their pinned creation sequence
        numbers, so every delta consumer rebuilds exactly the state it
        held before the crash.
        """
        broker = self.broker
        if snapshot.broker != broker.name:
            raise ValueError(
                "snapshot of {} cannot restore broker {}".format(snapshot.broker, broker.name)
            )
        # Every decoded filter gives way to the network's live one.
        intern = broker.filter_caches.intern
        # Logical states come back first and claim their routing rows as
        # these are restored.
        broker.logical.restore(snapshot.logical_states)
        for filter_, destination, subjects, seq in snapshot.subscription_rows:
            filter_ = broker.logical.claim_row(intern(filter_), destination, subjects)
            broker.subscription_table.restore_row(filter_, destination, subjects, seq)
        broker.subscription_table.advance_row_seq(snapshot.subscription_row_seq)
        for filter_, destination, subjects, seq in snapshot.advertisement_rows:
            broker.advertisement_table.restore_row(intern(filter_), destination, subjects, seq)
        broker.advertisement_table.advance_row_seq(snapshot.advertisement_row_seq)
        broker.forwarding.restore(
            snapshot.forwarded_subscriptions, snapshot.forwarded_advertisements
        )

    # ------------------------------------------------------------------
    # In-flight retention (config.forward_retention)
    # ------------------------------------------------------------------
    def send_retained_forward(
        self, neighbour: str, notification: Notification, window: int
    ) -> None:
        """Forward *notification* wrapped with a link sequence, retaining it.

        The copy stays in the per-neighbour window until the neighbour's
        cumulative ack covers it; a bounded window evicts oldest-first
        (``retention_evicted`` counts the evictions — an eviction is a
        reopened loss window, so sizing shows up in the counters).
        """
        broker = self.broker
        sequence = self._forward_link_seq.get(neighbour, 0) + 1
        self._forward_link_seq[neighbour] = sequence
        buffer = self._retained_forwards.setdefault(neighbour, deque())
        buffer.append((sequence, notification))
        broker.counters["forwards_retained"] += 1
        while len(buffer) > window:
            buffer.popleft()
            broker.counters["retention_evicted"] += 1
        broker._links[neighbour].send(
            broker.ids.stamp(SequencedForward(notification, sender=broker.name, link_seq=sequence))
        )

    def handle_forward(
        self, message: SequencedForward, from_destination: Optional[str]
    ) -> None:
        """Unwrap a retained forward, process it, and ack it cumulatively."""
        broker = self.broker
        if from_destination is not None:
            previous = self._forward_recv_seq.get(from_destination, 0)
            self._forward_recv_seq[from_destination] = max(previous, message.link_seq)
        broker._handle_notification(message.notification, from_destination)
        if from_destination in broker._links and not self.replaying:
            ack = ForwardAck(
                sender=broker.name,
                upto=self._forward_recv_seq.get(from_destination, message.link_seq),
            )
            broker._links[from_destination].send(broker.ids.stamp(ack))

    def handle_forward_ack(self, message: ForwardAck, from_destination: Optional[str]) -> None:
        buffer = self._retained_forwards.get(from_destination)
        if not buffer:
            return
        while buffer and buffer[0][0] <= message.upto:
            buffer.popleft()
            self.broker.counters["forwards_acked"] += 1

    def retained_forwards(self, neighbour: str) -> List[Tuple[int, Notification]]:
        """The currently retained (unacked) window toward *neighbour*."""
        return list(self._retained_forwards.get(neighbour, ()))

    # ------------------------------------------------------------------
    # Heartbeats (liveness beacons consumed by the failure detector)
    # ------------------------------------------------------------------
    def emit_heartbeats(self) -> None:
        """Send one :class:`Heartbeat` to every neighbour (no-op while down)."""
        broker = self.broker
        if broker.is_crashed:
            return
        now = broker.clock.now
        for neighbour in broker.neighbours():
            broker.counters["heartbeats_sent"] += 1
            heartbeat = Heartbeat(sender=broker.name, sent_at=now)
            broker._links[neighbour].send(broker.ids.stamp(heartbeat))

    def handle_heartbeat(self, message: Heartbeat, from_destination: Optional[str]) -> None:
        if from_destination is not None:
            self.heartbeat_last_heard[from_destination] = self.broker.clock.now

    #: This component's rows of ``Broker._MESSAGE_TABLE`` (see there).
    MESSAGES = {
        SequencedForward: ("notifications_received", False, False, "reliability", handle_forward),
        ForwardAck: ("control_received", False, False, "reliability", handle_forward_ack),
        Heartbeat: ("control_received", False, False, "reliability", handle_heartbeat),
    }
