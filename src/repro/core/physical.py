"""State kept by border brokers for the physical-mobility protocol (Section 4).

Two pieces of per-(client, subscription) state exist during a relocation:

* :class:`VirtualCounterpart` — lives at the **old** border broker from the
  moment the client disconnects.  It keeps the subscription active
  ("maintain a 'virtual counterpart' of a roaming client at the last known
  location"), buffers every matching notification with a continuing
  delivery sequence number, and replays the buffered suffix greater than
  the client's last acknowledged sequence number when the fetch request
  arrives.

* :class:`RelocationBuffer` — lives at the **new** border broker from the
  moment the relocated client re-issues its subscription until the replay
  has arrived.  It buffers notifications that already travel along the new
  delivery path so that they can be delivered *after* the replayed ones,
  preserving order, and suppresses duplicates by the notifications'
  global identity.

Both buffers are bounded; the paper notes that completeness holds "within
the boundaries of time and/or space limitations of buffering approaches",
and the overflow counters let experiments quantify exactly that boundary.

:class:`PhysicalMobility` is one broker's side of the protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.filters.filter import Filter
from repro.messages.admin import Subscribe, Unsubscribe
from repro.messages.mobility import (
    FetchRequest,
    MovedSubscribe,
    Replay,
    subscription_token,
)
from repro.messages.notification import Notification, SequencedNotification


class VirtualCounterpart:
    """The virtual counterpart of a disconnected client at its old border broker.

    A bounded buffer drops its oldest notification when full.
    """

    def __init__(
        self,
        client_id: str,
        subscription_id: str,
        filter_: Filter,
        next_sequence: int,
        max_buffer: Optional[int] = None,
    ) -> None:
        self.client_id = client_id
        self.subscription_id = subscription_id
        self.filter = filter_
        self._next_sequence = int(next_sequence)
        self.max_buffer = max_buffer
        self._buffer: List[SequencedNotification] = []
        self.overflowed = 0

    @property
    def token(self) -> str:
        """The subscription token ``client/subscription``."""
        return subscription_token(self.client_id, self.subscription_id)

    @property
    def next_sequence(self) -> int:
        """The sequence number the next buffered notification will receive."""
        return self._next_sequence

    def buffered_count(self) -> int:
        """Number of notifications currently buffered."""
        return len(self._buffer)

    # -- buffering -----------------------------------------------------------
    def buffer(self, notification: Notification) -> SequencedNotification:
        """Buffer a matching notification, assigning the next sequence number."""
        sequenced = SequencedNotification(
            notification=notification,
            client_id=self.client_id,
            subscription_id=self.subscription_id,
            sequence=self._next_sequence,
        )
        self._next_sequence += 1
        self._buffer.append(sequenced)
        if self.max_buffer is not None and len(self._buffer) > self.max_buffer:
            self.overflowed += 1
            self._buffer.pop(0)
        return sequenced

    # -- replay ----------------------------------------------------------------
    def replay_after(self, last_sequence: int) -> List[SequencedNotification]:
        """The buffered notifications with sequence numbers greater than *last_sequence*.

        This is what the old border broker ships back in the
        :class:`~repro.messages.mobility.Replay` message ("replays all
        events buffered in the virtual counterpart of (C, F) beginning with
        the sequence number initially given by C", Section 4.1).
        """
        return [s for s in self._buffer if s.sequence > last_sequence]

    def describe(self) -> str:
        """Human-readable state summary used by traces."""
        return "VirtualCounterpart(token={}, buffered={}, next_seq={}, overflowed={})".format(
            self.token, len(self._buffer), self._next_sequence, self.overflowed
        )


class RelocationBuffer:
    """Buffer at the new border broker while a relocation is in progress.

    It holds the notifications that arrive over the new path until the
    :class:`~repro.messages.mobility.Replay` does.  *relocation* is the
    open record of this move, which the replay's arrival completes.
    """

    def __init__(self, relocation: RelocationRecord) -> None:
        self.relocation = relocation
        self._pending: List[Notification] = []

    @property
    def token(self) -> str:
        """The subscription token ``client/subscription``."""
        return subscription_token(self.relocation.client_id, self.relocation.subscription_id)

    def hold(self, notification: Notification) -> None:
        """Buffer a notification that arrived over the new path during relocation."""
        self._pending.append(notification)

    def flush(
        self, replayed: Sequence[SequencedNotification]
    ) -> Tuple[List[SequencedNotification], List[Notification]]:
        """The final delivery order of the *replayed* and the held notifications.

        Returns ``(replayed, fresh)`` where *replayed* are the old-path
        notifications in their original sequence order and *fresh* are the
        held new-path notifications with any duplicates of the replayed
        ones removed ("delivers the old messages from B6 first before
        delivering the 'new' messages from its own buffer to guarantee the
        correct delivery order", Section 4.1).
        """
        replayed = sorted(replayed, key=lambda s: s.sequence)
        seen: Set[Tuple[str, int]] = {s.notification.identity for s in replayed}
        fresh: List[Notification] = []
        for notification in self._pending:
            if notification.identity in seen:
                continue
            seen.add(notification.identity)
            fresh.append(notification)
        self._pending.clear()
        return replayed, fresh

    def describe(self) -> str:
        """Human-readable state summary used by traces."""
        return "RelocationBuffer(token={}, pending={})".format(self.token, len(self._pending))


@dataclass
class RelocationRecord:
    """Bookkeeping entry describing one completed (or ongoing) relocation.

    Collected by border brokers and reported by the relocation latency
    benchmarks: when the client re-attached, when the replay arrived, how
    many notifications were replayed and how many fresh ones were held
    back.
    """

    client_id: str
    subscription_id: str
    old_border: Optional[str]
    new_border: str
    started_at: float
    completed_at: Optional[float] = None
    replayed: int = 0
    fresh: int = 0

    @property
    def latency(self) -> Optional[float]:
        """Relocation latency (reattach to buffer flush), or ``None`` if ongoing."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.started_at


class PhysicalMobility:
    """One broker's side of the relocation protocol (Section 4).

    Owns the counterparts held here and the records of relocations to
    here; the broker builds a new one with the rest of its volatile state.
    """

    def __init__(self, broker: Any) -> None:
        self.broker = broker
        #: token -> the counterpart of a subscription whose client left.
        self.counterparts: Dict[str, VirtualCounterpart] = {}
        #: One record per relocation to this broker (benchmarks read them).
        self.relocation_records: List[RelocationRecord] = []

    def counterpart_for(
        self, client_id: str, subscription_id: str
    ) -> Optional[VirtualCounterpart]:
        """The virtual counterpart for a subscription, if one exists here."""
        return self.counterparts.get(subscription_token(client_id, subscription_id))

    def rows(self, token: str) -> List[Any]:
        """Every routing row of *token*: the one scan of the table by subject."""
        return self.broker.subscription_table.entries_for_subject(token)

    def keep_counterparts(self, records: Iterable[Any]) -> None:
        """Keep a virtual counterpart for each subscription record of a detached client.

        The routing entries stay in place, so matching notifications keep
        flowing here and get buffered: the "virtual counterpart of a
        roaming client at the last known location" of Section 4.1.
        """
        counterparts, max_buffer = self.counterparts, self.broker.config.counterpart_max_buffer
        for r in records:
            if r.token not in counterparts:
                counterparts[r.token] = VirtualCounterpart(
                    r.client_id, r.subscription_id, r.filter, r.next_sequence, max_buffer
                )

    def client_moved_subscribe(
        self, client_id: str, subscription_id: str, filter_: Filter, last_sequence: int
    ) -> None:
        """Handle the re-issued subscription of a client that roamed to this broker.

        This is step 3 of the paper's Figure 5: the client re-issues the
        subscription together with the last received sequence number
        (``(C, F, 123)``).  Neither the client nor this broker needs to
        know the old border broker.
        """
        broker = self.broker
        record = broker._add_subscription(client_id, subscription_id, filter_, last_sequence + 1)
        token = record.token
        started = RelocationRecord(
            client_id=client_id,
            subscription_id=subscription_id,
            old_border=None,
            new_border=broker.name,
            started_at=broker.clock.now,
        )
        self.relocation_records.append(started)

        # Degenerate case: the client re-attached at its old border broker.
        local_counterpart = self.counterparts.pop(token, None)
        if local_counterpart is not None:
            # Only the table row survives a crash of this branch (the
            # counterpart is volatile), so it is applied as a plain
            # Subscribe: replaying a MovedSubscribe against a recovered
            # table without the counterpart would forward it upstream,
            # which the original execution never did.
            subscribe = broker.ids.stamp(Subscribe(filter_, subject=token))
            started.old_border = broker.name
            replayed = local_counterpart.replay_after(last_sequence)
            for sequenced in replayed:
                broker._deliver_to_client(record, sequenced.notification, sequenced.sequence)
            if replayed:
                record.next_sequence = replayed[-1].sequence + 1
            started.replayed = len(replayed)
            started.completed_at = broker.clock.now
            broker._apply(subscribe, client_id)
            return

        # Normal case: buffer new-path notifications until the replay
        # arrives, then register the subscription and look for the
        # junction starting at this broker.
        record.relocation_buffer = RelocationBuffer(started)
        moved = MovedSubscribe(
            client_id=client_id,
            subscription_id=subscription_id,
            filter_=filter_,
            last_sequence=last_sequence,
            new_border=broker.name,
        )
        if not broker._apply(broker.ids.stamp(moved), client_id):
            # No direction could possibly lead to the old location (an
            # isolated broker, or no matching advertisements at all):
            # complete the relocation immediately with an empty replay so
            # the client does not wait forever.
            record.relocation_buffer = None
            started.completed_at = broker.clock.now

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
        broker = self.broker
        record = broker._add_subscription(client_id, subscription_id, filter_, last_sequence + 1)
        token = record.token
        dead_rows = [row for row in self.rows(token) if row.destination == dead_border]
        self._divert(token, dead_rows, filter_, client_id)
        replayed = 0
        if broker.config.forward_retention is not None:
            seen = set(seen_identities)
            for _, notification in broker.reliability.retained_forwards(dead_border):
                if notification.identity in seen:
                    continue
                if not filter_.matches(notification.attributes):
                    continue
                seen.add(notification.identity)
                sequence = record.next_sequence
                record.next_sequence += 1
                broker.counters["retention_replayed"] += 1
                broker._deliver_to_client(record, notification, sequence)
                replayed += 1
        now = broker.clock.now
        self.relocation_records.append(
            RelocationRecord(
                client_id=client_id,
                subscription_id=subscription_id,
                old_border=dead_border,
                new_border=broker.name,
                started_at=now,
                completed_at=now,
                replayed=replayed,
            )
        )
        broker.forwarding.refresh_all(exclude=client_id)

    def _token_rows(self, token: str, exclude: Optional[str]) -> List[Any]:
        """The first routing row of *token* per destination but *exclude*, by destination."""
        rows: Dict[str, Any] = {}
        for row in self.rows(token):
            if row.destination != exclude:
                rows.setdefault(row.destination, row)
        return [rows[destination] for destination in sorted(rows)]

    def _divert(self, token: str, rows: Sequence[Any], filter_: Filter, destination: str) -> None:
        """Move *token* off *rows* onto one row of *filter_* toward *destination*.

        Each write is journaled as the Unsubscribe / Subscribe it amounts
        to.  The caller refreshes the forwarding once, when it is done.
        """
        broker = self.broker
        journal, stamp = broker.reliability.journal, broker.ids.stamp
        for row in rows:
            journal(row.destination, stamp(Unsubscribe(row.filter, subject=token)))
            broker.subscription_table.remove(row.filter, row.destination, token)
        journal(destination, stamp(Subscribe(filter_, subject=token)))
        broker.subscription_table.add(filter_, destination, token)

    def _forward_moved_subscribe(self, message: MovedSubscribe, exclude: str) -> int:
        """Propagate a MovedSubscribe toward producers (it must find the junction).

        Returns the number of neighbours the message was forwarded to.
        """
        broker = self.broker
        token = subscription_token(message.client_id, message.subscription_id)
        count = 0
        for neighbour in broker.neighbours():
            if neighbour == exclude or not broker.forwarding.may_forward(neighbour, message.filter):
                continue
            broker.forwarding.states[neighbour].sent_behind(message.filter, token)
            broker._links[neighbour].send(message)
            count += 1
        return count

    def handle_moved_subscribe(self, message: MovedSubscribe, from_destination: str) -> bool:
        """Register the roamer's row and find the junction (Section 4.1).

        Returns whether the relocation is under way: this broker is the
        junction, or the message went on toward at least one producer.
        """
        broker = self.broker
        token = subscription_token(message.client_id, message.subscription_id)
        old_rows = self._token_rows(token, exclude=from_destination)
        broker.subscription_table.add(message.filter, from_destination, token)
        if old_rows:
            # This broker already lies on the old delivery path: it is the
            # junction itself.
            self._act_as_junction(message, token, old_rows)
            under_way = True
        else:
            if from_destination in broker._clients:
                # A roaming client's own message is its journal record;
                # the one that travels on is the broker's.
                message = broker.ids.stamp(
                    MovedSubscribe(
                        client_id=message.client_id,
                        subscription_id=message.subscription_id,
                        filter_=message.filter,
                        last_sequence=message.last_sequence,
                        new_border=message.new_border,
                    )
                )
            under_way = self._forward_moved_subscribe(message, exclude=from_destination) > 0
        broker.forwarding.refresh_all(exclude=from_destination)
        return under_way

    def _act_as_junction(self, message: MovedSubscribe, token: str, rows: Sequence[Any]) -> None:
        """Junction behaviour: divert the old path and request the replay.

        The junction removes its routing entries toward the old location,
        sends a fetch request along each of them, and from this moment on
        routes newly received notifications along the new path only
        (Section 4.1: "already starts routing all newly received
        notifications from P along the new path").
        """
        broker = self.broker
        for row in rows:
            destination = row.destination
            broker.subscription_table.remove(row.filter, destination, token)
            if destination not in broker._links:
                # The "old path" ends right here: this broker hosts the
                # virtual counterpart (it is the old border broker).
                self._replay_counterpart(token, message.last_sequence, toward=None)
                continue
            broker.counters["fetch_requests_sent"] += 1
            fetch = FetchRequest(
                client_id=message.client_id,
                subscription_id=message.subscription_id,
                filter_=message.filter,
                last_sequence=message.last_sequence,
                junction=broker.name,
            )
            broker._links[destination].send(broker.ids.stamp(fetch))

    def handle_fetch_request(self, message: FetchRequest, from_destination: str) -> None:
        broker = self.broker
        token = subscription_token(message.client_id, message.subscription_id)
        rows = self.rows(token)
        if token in self.counterparts:
            # The old border broker: divert our routing entry for the token
            # toward the fetch sender so that the replay (and any straggler
            # notifications) flow back toward the junction and on to the
            # new location, then replay the buffered notifications.
            self._divert(token, rows, message.filter, from_destination)
            self._replay_counterpart(token, message.last_sequence, toward=from_destination)
            broker.forwarding.refresh_all(exclude=from_destination)
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
            if row.destination != from_destination and row.destination in broker._links
        ]
        self._divert(token, link_bound, message.filter, from_destination)
        for row in link_bound:
            broker._links[row.destination].send(message)
        if not link_bound:
            # The remaining entries point at locally attached clients, not
            # along an old path — this happens when the old border crashed
            # and the subscription was adopted here by takeover.  There is
            # no counterpart anywhere (it died with the old border), so
            # terminate the protocol: answer with an empty replay so the
            # requester's relocation buffer flushes instead of waiting
            # forever.  The local client rows are left untouched.
            self._send_replay(message, [], from_destination)
        broker.forwarding.refresh_all(exclude=from_destination)

    def _replay_counterpart(self, token: str, last_sequence: int, toward: Optional[str]) -> None:
        """Ship the buffered suffix back toward the new location and clean up."""
        counterpart = self.counterparts.pop(token, None)
        if counterpart is None:
            return
        self._send_replay(counterpart, counterpart.replay_after(last_sequence), toward)
        # The old client registration (if any) can now be garbage collected.
        clients = self.broker._clients
        registration = clients.get(counterpart.client_id)
        if registration is not None and not registration.attached:
            registration.subscriptions.pop(token, None)
            if not registration.subscriptions:
                clients.pop(counterpart.client_id, None)

    def _send_replay(self, fetched: Any, replayed: Sequence[Any], toward: Optional[str]) -> None:
        """Answer a fetch with one Replay of the *replayed* notifications.

        *fetched* (a counterpart or a fetch request) names the subscription.
        The Replay goes to the neighbour *toward*; without one (the junction
        is this broker itself) it is routed along the token's rows.
        """
        broker = self.broker
        broker.counters["replays_sent"] += 1
        replay = broker.ids.stamp(
            Replay(fetched.client_id, fetched.subscription_id, replayed, origin_border=broker.name)
        )
        if toward in broker._links:
            broker._links[toward].send(replay)
        else:
            self.handle_replay(replay, None)

    def handle_replay(self, message: Replay, from_destination: Optional[str]) -> None:
        """Route a Replay on along its token's rows, once per destination.

        A token can hold two rows toward one neighbour (the row
        :meth:`_divert` adds for a passing fetch, and the row of the
        covering filter it was forwarded under); the Replay crosses that
        link once.  A row toward a local client ends the path: this is the
        new border broker, and the replay completes the client's
        relocation.
        """
        links = self.broker._links
        token = subscription_token(message.client_id, message.subscription_id)
        for row in self._token_rows(token, exclude=from_destination):
            destination = row.destination
            if destination in links:
                links[destination].send(message)
            else:
                self._relocation_message_arrived(message, token)

    def _relocation_message_arrived(self, message: Replay, token: str) -> None:
        """Complete the relocation: the replayed notifications first, then the held ones.

        The buffer is taken off the subscription before anything is
        delivered, so a delivery made from inside the flush is not held.
        """
        broker = self.broker
        registration = broker._clients.get(message.client_id)
        if registration is None:
            return
        record = registration.subscriptions.get(token)
        if record is None or record.relocation_buffer is None:
            return
        buffer_, record.relocation_buffer = record.relocation_buffer, None
        replayed, fresh = buffer_.flush(message.notifications)
        for sequenced in replayed:
            broker._deliver_to_client(record, sequenced.notification, sequenced.sequence)
        if replayed:
            record.next_sequence = max(record.next_sequence, replayed[-1].sequence + 1)
        for notification in fresh:
            sequence = record.next_sequence
            record.next_sequence += 1
            broker._deliver_to_client(record, notification, sequence)
        relocation = buffer_.relocation
        relocation.completed_at = broker.clock.now
        relocation.old_border = message.origin_border
        relocation.replayed = len(replayed)
        relocation.fresh = len(fresh)

    #: This component's rows of ``Broker._MESSAGE_TABLE`` (see there).  A
    #: FetchRequest's table effect depends on volatile state (is there a
    #: counterpart here?), so its handler journals the Unsubscribe /
    #: Subscribe writes of the branch it took.  A Replay changes no routing
    #: state: it empties a relocation buffer, which a crash discards.
    MESSAGES = {
        MovedSubscribe: ("mobility_received", True, True, "physical", handle_moved_subscribe),
        FetchRequest: ("mobility_received", False, True, "physical", handle_fetch_request),
        Replay: ("mobility_received", False, False, "physical", handle_replay),
    }
