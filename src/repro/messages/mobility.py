"""Control messages of the two mobility protocols.

Physical mobility (Section 4) uses four message types:

* :class:`MovedSubscribe` — the re-issued subscription ``(C, F, last_seq)``
  a reconnecting client hands to its new border broker; brokers forward it
  toward matching advertisements exactly like a normal subscription, but
  it additionally triggers relocation handling at the junction broker.
* :class:`FetchRequest` — sent by the junction broker along the *old*
  delivery path toward the old border broker; brokers along the way divert
  their routing entries for (C, F) toward the junction.
* :class:`Replay` — the old border broker's virtual counterpart ships the
  buffered notifications (those with sequence numbers greater than
  ``last_seq``) back along the updated path.
* :class:`RelocationComplete` — an end-of-replay marker that lets the new
  border broker flush its own buffer of "new-path" notifications in the
  correct order and lets intermediate brokers and the old border broker
  garbage-collect state.

Logical mobility (Section 5) uses a single additional control message,
:class:`LocationUpdate`, which replaces the plain sub/unsub administrative
messages for the location-dependent part of a subscription ("The messages
about location changes replace the administrative messages that are sent
to spread the information about new subscriptions", Section 5.4).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.filters.filter import Filter
from repro.filters.wire import filter_from_wire, filter_to_wire
from repro.messages.base import Message, MessageKind
from repro.messages.notification import SequencedNotification


def subscription_token(client_id: str, subscription_id: str) -> str:
    """The routing subject of one client subscription: ``client/subscription``.

    Unique because client ids carry no ``/`` (``Client`` rejects them).
    """
    return "{}/{}".format(client_id, subscription_id)


class MovedSubscribe(Message):
    """Re-issued subscription of a relocated client: ``(C, F, last_seq)``."""

    kind = MessageKind.MOBILITY

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

    def _wire_body(self) -> Dict[str, Any]:
        return {
            "client_id": self.client_id,
            "subscription_id": self.subscription_id,
            "filter": filter_to_wire(self.filter),
            "last_sequence": self.last_sequence,
            "new_border": self.new_border,
        }

    @classmethod
    def _from_wire_body(cls, payload: Dict[str, Any]) -> "MovedSubscribe":
        return cls(
            client_id=payload["client_id"],
            subscription_id=payload["subscription_id"],
            filter_=filter_from_wire(payload["filter"]),
            last_sequence=payload["last_sequence"],
            new_border=payload["new_border"],
        )


class FetchRequest(Message):
    """Fetch request ``(C, F, last_seq, junction)`` sent along the old path."""

    kind = MessageKind.MOBILITY

    __slots__ = (
        "client_id",
        "subscription_id",
        "filter",
        "last_sequence",
        "junction",
        "new_border",
    )

    def __init__(
        self,
        client_id: str,
        subscription_id: str,
        filter_: Filter,
        last_sequence: int,
        junction: str,
        new_border: str,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(meta)
        self.client_id = client_id
        self.subscription_id = subscription_id
        self.filter = filter_
        self.last_sequence = int(last_sequence)
        self.junction = junction
        self.new_border = new_border

    def describe(self) -> str:
        return "FetchRequest(client={}, sub={}, last_seq={}, junction={})".format(
            self.client_id, self.subscription_id, self.last_sequence, self.junction
        )

    def _wire_body(self) -> Dict[str, Any]:
        return {
            "client_id": self.client_id,
            "subscription_id": self.subscription_id,
            "filter": filter_to_wire(self.filter),
            "last_sequence": self.last_sequence,
            "junction": self.junction,
            "new_border": self.new_border,
        }

    @classmethod
    def _from_wire_body(cls, payload: Dict[str, Any]) -> "FetchRequest":
        return cls(
            client_id=payload["client_id"],
            subscription_id=payload["subscription_id"],
            filter_=filter_from_wire(payload["filter"]),
            last_sequence=payload["last_sequence"],
            junction=payload["junction"],
            new_border=payload["new_border"],
        )


class Replay(Message):
    """Replay of buffered notifications from the virtual counterpart.

    Carries the sequenced notifications buffered for the relocated client
    whose sequence numbers exceed the client's ``last_sequence``.  The
    replay travels along the (already diverted) path from the old border
    broker via the junction to the new border broker.
    """

    kind = MessageKind.MOBILITY

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

    def _wire_body(self) -> Dict[str, Any]:
        return {
            "client_id": self.client_id,
            "subscription_id": self.subscription_id,
            "notifications": [sequenced.to_wire() for sequenced in self.notifications],
            "origin_border": self.origin_border,
        }

    @classmethod
    def _from_wire_body(cls, payload: Dict[str, Any]) -> "Replay":
        return cls(
            client_id=payload["client_id"],
            subscription_id=payload["subscription_id"],
            notifications=[
                SequencedNotification.from_wire(item) for item in payload["notifications"]
            ],
            origin_border=payload["origin_border"],
        )


class RelocationComplete(Message):
    """End-of-replay marker that also authorises garbage collection.

    Sent by the old border broker immediately after the :class:`Replay`
    message; brokers on the old path drop any leftover state for the
    relocated (client, subscription) pair, and the new border broker
    switches from "buffer new-path notifications" to normal delivery.
    """

    kind = MessageKind.MOBILITY

    __slots__ = ("client_id", "subscription_id", "origin_border")

    def __init__(
        self,
        client_id: str,
        subscription_id: str,
        origin_border: str,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(meta)
        self.client_id = client_id
        self.subscription_id = subscription_id
        self.origin_border = origin_border

    def describe(self) -> str:
        return "RelocationComplete(client={}, sub={}, origin={})".format(
            self.client_id, self.subscription_id, self.origin_border
        )

    def _wire_body(self) -> Dict[str, Any]:
        return {
            "client_id": self.client_id,
            "subscription_id": self.subscription_id,
            "origin_border": self.origin_border,
        }

    @classmethod
    def _from_wire_body(cls, payload: Dict[str, Any]) -> "RelocationComplete":
        return cls(
            client_id=payload["client_id"],
            subscription_id=payload["subscription_id"],
            origin_border=payload["origin_border"],
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

    def _wire_body(self) -> Dict[str, Any]:
        return {
            "client_id": self.client_id,
            "subscription_id": self.subscription_id,
            "old_location": self.old_location,
            "new_location": self.new_location,
            "hop_index": self.hop_index,
        }

    @classmethod
    def _from_wire_body(cls, payload: Dict[str, Any]) -> "LocationUpdate":
        return cls(
            client_id=payload["client_id"],
            subscription_id=payload["subscription_id"],
            old_location=payload["old_location"],
            new_location=payload["new_location"],
            hop_index=payload["hop_index"],
        )

    def describe(self) -> str:
        return "LocationUpdate(client={}, sub={}, {} -> {}, hop={})".format(
            self.client_id,
            self.subscription_id,
            self.old_location,
            self.new_location,
            self.hop_index,
        )
