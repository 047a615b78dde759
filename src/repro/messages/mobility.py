"""Control messages of the two mobility protocols.

Physical mobility (Section 4) uses three message types:

* :class:`MovedSubscribe` — the re-issued subscription ``(C, F, last_seq)``
  a reconnecting client hands to its new border broker; brokers forward it
  toward matching advertisements exactly like a normal subscription, but
  it additionally triggers relocation handling at the junction broker.
* :class:`FetchRequest` — sent by the junction broker along the *old*
  delivery path toward the old border broker; brokers along the way divert
  their routing entries for (C, F) toward the junction.
* :class:`Replay` — the old border broker's virtual counterpart ships the
  buffered notifications (those with sequence numbers greater than
  ``last_seq``) back along the updated path.  Its arrival completes the
  relocation: the new border broker delivers the replayed notifications,
  then its own buffer of "new-path" ones.

Logical mobility (Section 5) uses a single additional control message,
:class:`LocationUpdate`, which replaces the plain sub/unsub administrative
messages for the location-dependent part of a subscription ("The messages
about location changes replace the administrative messages that are sent
to spread the information about new subscriptions", Section 5.4).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.filters.filter import Filter
from repro.filters.wire import FILTER
from repro.messages.base import Message, MessageKind
from repro.messages.notification import SEQUENCED_NOTIFICATIONS, SequencedNotification


def subscription_token(client_id: str, subscription_id: str) -> str:
    """The routing subject of one client subscription: ``client/subscription``.

    Unique because client ids carry no ``/`` (``Client`` rejects them).
    """
    return "{}/{}".format(client_id, subscription_id)


class MovedSubscribe(Message):
    """Re-issued subscription of a relocated client: ``(C, F, last_seq)``."""

    kind = MessageKind.MOBILITY

    wire_fields = (
        "client_id",
        "subscription_id",
        ("filter", FILTER),
        "last_sequence",
        "new_border",
    )

    __slots__ = ("client_id", "subscription_id", "filter", "last_sequence", "new_border")

    def __init__(
        self,
        client_id: str,
        subscription_id: str,
        filter_: Filter,
        last_sequence: int,
        new_border: str,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(meta)
        self.client_id = client_id
        self.subscription_id = subscription_id
        self.filter = filter_
        self.last_sequence = int(last_sequence)
        self.new_border = new_border

    def describe(self) -> str:
        return "MovedSubscribe(client={}, sub={}, last_seq={}, new_border={})".format(
            self.client_id, self.subscription_id, self.last_sequence, self.new_border
        )


class FetchRequest(Message):
    """Fetch request ``(C, F, last_seq, junction)`` sent along the old path."""

    kind = MessageKind.MOBILITY

    wire_fields = ("client_id", "subscription_id", ("filter", FILTER), "last_sequence", "junction")

    __slots__ = ("client_id", "subscription_id", "filter", "last_sequence", "junction")

    def __init__(
        self,
        client_id: str,
        subscription_id: str,
        filter_: Filter,
        last_sequence: int,
        junction: str,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(meta)
        self.client_id = client_id
        self.subscription_id = subscription_id
        self.filter = filter_
        self.last_sequence = int(last_sequence)
        self.junction = junction

    def describe(self) -> str:
        return "FetchRequest(client={}, sub={}, last_seq={}, junction={})".format(
            self.client_id, self.subscription_id, self.last_sequence, self.junction
        )


class Replay(Message):
    """Replay of buffered notifications from the virtual counterpart.

    Carries the sequenced notifications buffered for the relocated client
    whose sequence numbers exceed the client's ``last_sequence``.  The
    replay travels along the (already diverted) path from the old border
    broker via the junction to the new border broker, where it completes
    the relocation: one message carries the whole suffix.
    """

    kind = MessageKind.MOBILITY

    wire_fields = (
        "client_id",
        "subscription_id",
        ("notifications", SEQUENCED_NOTIFICATIONS),
        "origin_border",
    )

    __slots__ = ("client_id", "subscription_id", "notifications", "origin_border")

    def __init__(
        self,
        client_id: str,
        subscription_id: str,
        notifications: Sequence[SequencedNotification],
        origin_border: str,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(meta)
        self.client_id = client_id
        self.subscription_id = subscription_id
        self.notifications: List[SequencedNotification] = list(notifications)
        self.origin_border = origin_border

    def describe(self) -> str:
        return "Replay(client={}, sub={}, count={}, origin={})".format(
            self.client_id, self.subscription_id, len(self.notifications), self.origin_border
        )


class LocationUpdate(Message):
    """Location-change control message of the logical-mobility scheme.

    Broker ``B_i`` sends a :class:`LocationUpdate` to ``B_{i+1}`` telling
    it to change its location-dependent filter for the subscription from
    ``ploc(old, level)`` to ``ploc(new, level)`` — i.e. to unsubscribe
    from the removed locations and subscribe to the added ones
    (Section 5.1).  The update carries the new location (and the old one
    for bookkeeping); each broker derives the concrete location *sets*
    from its own uncertainty level.
    """

    kind = MessageKind.MOBILITY

    wire_fields = ("client_id", "subscription_id", "old_location", "new_location", "hop_index")

    __slots__ = ("client_id", "subscription_id", "old_location", "new_location", "hop_index")

    def __init__(
        self,
        client_id: str,
        subscription_id: str,
        old_location: Optional[str],
        new_location: str,
        hop_index: int = 0,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(meta)
        self.client_id = client_id
        self.subscription_id = subscription_id
        self.old_location = old_location
        self.new_location = new_location
        self.hop_index = int(hop_index)

    def describe(self) -> str:
        return "LocationUpdate(client={}, sub={}, {} -> {}, hop={})".format(
            self.client_id,
            self.subscription_id,
            self.old_location,
            self.new_location,
            self.hop_index,
        )
