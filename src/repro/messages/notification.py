"""Notifications — the application-level event messages.

A notification "reifies and describes an occurred event" (Section 2.1) and
carries name/value pairs.  Each notification also records its publisher
and a per-publisher sequence number; the pair ``(publisher, publisher_seq)``
is the notification's global identity, used for duplicate suppression
during relocation (Section 4.1) and by the QoS checkers.

:class:`SequencedNotification` wraps a notification together with the
per-(client, subscription) delivery sequence number annotated by the
border broker — the "last received sequence number" that a relocating
client re-submits with its subscription (``(C, F, 123)`` in the paper's
example).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.filters.attributes import coerce_value
from repro.messages.base import Message, MessageKind


class Notification(Message):
    """An event notification published into the system."""

    kind = MessageKind.NOTIFICATION

    wire_fields = ("attributes", "publisher", "publisher_seq", "publish_time")

    __slots__ = ("attributes", "publisher", "publisher_seq", "publish_time", "identity")

    def __init__(
        self,
        attributes: Mapping[str, Any],
        publisher: str,
        publisher_seq: int,
        publish_time: float = 0.0,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(meta)
        validated: Dict[str, Any] = {}
        for name, value in attributes.items():
            if not isinstance(name, str) or not name:
                raise ValueError("attribute names must be non-empty strings: {!r}".format(name))
            validated[name] = coerce_value(value)
        # Kept in name order: the trace, the wire codec and ``describe`` all
        # want the sorted form, and a notification never changes once built.
        self.attributes: Dict[str, Any] = dict(sorted(validated.items()))
        self.publisher = publisher
        self.publisher_seq = int(publisher_seq)
        self.publish_time = float(publish_time)
        #: Global identity ``(publisher, publisher_seq)`` of the event.
        self.identity: Tuple[str, int] = (publisher, self.publisher_seq)

    def get(self, name: str, default: Any = None) -> Any:
        """Value of attribute *name*, or *default*."""
        return self.attributes.get(name, default)

    def __getitem__(self, name: str) -> Any:
        return self.attributes[name]

    def __contains__(self, name: str) -> bool:
        return name in self.attributes

    def describe(self) -> str:
        return "Notification({}#{}, {})".format(
            self.publisher, self.publisher_seq, self.attributes
        )


#: The wire pair of a nested notification (a ``SequencedNotification``'s
#: or a ``SequencedForward``'s payload).
NOTIFICATION = (Notification.to_wire, Notification.from_wire)


class SequencedNotification(Message):
    """A notification annotated with a per-subscription delivery sequence number.

    Border brokers assign consecutive sequence numbers per (client,
    subscription) as they deliver notifications.  The client remembers the
    last number it has seen and re-submits it when it reconnects at a new
    border broker so that the virtual counterpart at the old location can
    replay exactly the missed suffix (Section 4.1).
    """

    kind = MessageKind.NOTIFICATION

    wire_fields = (("notification", NOTIFICATION), "client_id", "subscription_id", "sequence")

    __slots__ = ("notification", "client_id", "subscription_id", "sequence")

    def __init__(
        self,
        notification: Notification,
        client_id: str,
        subscription_id: str,
        sequence: int,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(meta)
        self.notification = notification
        self.client_id = client_id
        self.subscription_id = subscription_id
        self.sequence = int(sequence)

    def describe(self) -> str:
        return "SequencedNotification(client={}, sub={}, seq={}, {})".format(
            self.client_id,
            self.subscription_id,
            self.sequence,
            self.notification.describe(),
        )


def _sequenced_to_wire(items: Sequence[SequencedNotification]) -> List[Dict[str, Any]]:
    return [item.to_wire() for item in items]


def _sequenced_from_wire(payload: Sequence[Dict[str, Any]]) -> List[SequencedNotification]:
    return [SequencedNotification.from_wire(item) for item in payload]


#: The wire pair of a list of sequenced notifications (a ``Replay``'s payload).
SEQUENCED_NOTIFICATIONS = (_sequenced_to_wire, _sequenced_from_wire)
