"""Trace recording (backend-neutral).

Every message traversal of a channel and every delivery to a client
callback is recorded here.  The metrics layer (message counts for
Figure 9, the blackout analysis for Figure 3) and the QoS checkers
(completeness, duplicates, FIFO, epochs) are pure functions over these
records, which keeps the middleware itself free of measurement concerns.

The recorder depends only on :mod:`repro.messages`, so both the
simulator backend (:mod:`repro.runtime.sim`) and the asyncio backend
(:mod:`repro.runtime.aio`) feed the same record types — which is what
lets the backend-parity tests compare traces across backends directly.
(:mod:`repro.sim.trace` re-exports these names for compatibility.)

Records are **references, not copies**: each holds the time, the
endpoints and the message (or notification) itself, and renders
``description`` / ``attributes`` only when something reads them.  That is
sound because no message changes after it has been sent — the contract
``docs/observability.md`` ("Trace records") spells out and
``tests/runtime/test_trace_records.py`` checks on every experiment.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.messages.base import Message, MessageKind
from repro.messages.notification import Notification


class _MessageRecord:
    """A message seen on a link; everything about it is read through."""

    __slots__ = ("time", "source", "target", "message")

    def __init__(self, time: float, source: str, target: str, message: Message) -> None:
        self.time = time
        self.source = source
        self.target = target
        self.message = message

    @property
    def kind(self) -> MessageKind:
        return self.message.kind

    @property
    def message_type(self) -> str:
        return type(self.message).__name__

    @property
    def message_id(self) -> int:
        return self.message.message_id

    @property
    def description(self) -> str:
        """``message.describe()``, rendered when read."""
        return self.message.describe()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "{}({}, {}->{}, {})".format(
            type(self).__name__, self.time, self.source, self.target, self.description
        )


class LinkRecord(_MessageRecord):
    """One message crossing one link (counted once per traversal)."""

    __slots__ = ()


class DropRecord(_MessageRecord):
    """One message lost by fault injection, attributed to its cause.

    *reason* names the fault that consumed the message: ``"loss"`` for
    the iid drop model, ``"partition"`` for a scheduled link-down window,
    ``"broker-down"`` for a message that reached a crashed broker.  The
    recovery metrics (:mod:`repro.metrics.recovery`) split losses by
    reason, which is how the failure experiments attribute missing
    deliveries to the fault schedule instead of guessing.
    """

    __slots__ = ("reason",)

    def __init__(
        self, time: float, source: str, target: str, message: Message, reason: str
    ) -> None:
        super().__init__(time, source, target, message)
        self.reason = reason


class _NotificationRecord:
    """A notification seen at a client boundary; its content is read through."""

    __slots__ = ("time", "notification")

    def __init__(self, time: float, notification: Notification) -> None:
        self.time = time
        self.notification = notification

    @property
    def publisher(self) -> str:
        return self.notification.publisher

    @property
    def publisher_seq(self) -> int:
        return self.notification.publisher_seq

    @property
    def attributes(self) -> Tuple[Tuple[str, Any], ...]:
        """The notification's attributes as a name-sorted tuple of pairs."""
        return tuple(self.notification.attributes.items())

    @property
    def identity(self) -> Tuple[str, int]:
        """Global identity of the notification."""
        return self.notification.identity

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "{}({}, {})".format(type(self).__name__, self.time, self.notification.describe())


class PublishRecord(_NotificationRecord):
    """One notification injected into the system by a producer."""

    __slots__ = ()


class DeliveryRecord(_NotificationRecord):
    """One notification handed to a client's ``notify`` callback.

    The same object sits in ``TraceRecorder.delivery_records`` and in the
    receiving ``Client.received``.
    """

    __slots__ = ("client_id", "subscription_id", "sequence")

    def __init__(
        self,
        time: float,
        client_id: str,
        subscription_id: str,
        notification: Notification,
        sequence: Optional[int] = None,
    ) -> None:
        # Flat on purpose (no ``super().__init__``): built once per delivery.
        self.time = time
        self.client_id = client_id
        self.subscription_id = subscription_id
        self.notification = notification
        self.sequence = sequence


class TraceRecorder:
    """Collects link, publish and delivery records for one simulation run."""

    def __init__(self) -> None:
        self.link_records: List[LinkRecord] = []
        self.delivery_records: List[DeliveryRecord] = []
        self.publish_records: List[PublishRecord] = []
        self.drop_records: List[DropRecord] = []

    # -- recording hooks ----------------------------------------------------
    def record_link(self, time: float, source: str, target: str, message: Message) -> None:
        """Record that *message* crossed the link from *source* to *target*."""
        self.link_records.append(LinkRecord(time, source, target, message))

    def record_drop(
        self, time: float, source: str, target: str, message: Message, reason: str
    ) -> None:
        """Record that *message* was lost between *source* and *target*."""
        self.drop_records.append(DropRecord(time, source, target, message, reason))

    def record_publish(self, time: float, notification: Notification) -> None:
        """Record a notification being published by its producer."""
        self.publish_records.append(PublishRecord(time, notification))

    def record_delivery(
        self,
        time: float,
        client_id: str,
        subscription_id: str,
        notification: Notification,
        sequence: Optional[int] = None,
    ) -> DeliveryRecord:
        """Record a notification being delivered to a client; returns the record."""
        record = DeliveryRecord(time, client_id, subscription_id, notification, sequence)
        self.delivery_records.append(record)
        return record

    # -- queries --------------------------------------------------------------
    def deliveries_for(self, client_id: str) -> List[DeliveryRecord]:
        """All deliveries to *client_id*, in delivery order."""
        return [r for r in self.delivery_records if r.client_id == client_id]

    def link_messages(
        self,
        kind: Optional[MessageKind] = None,
        until: Optional[float] = None,
        since: Optional[float] = None,
    ) -> List[LinkRecord]:
        """Link traversals filtered by message kind and time window."""
        out = self.link_records
        if kind is not None:
            out = [r for r in out if r.kind == kind]
        if until is not None:
            out = [r for r in out if r.time <= until]
        if since is not None:
            out = [r for r in out if r.time >= since]
        return list(out)

    def count_link_messages(
        self,
        kind: Optional[MessageKind] = None,
        until: Optional[float] = None,
        since: Optional[float] = None,
    ) -> int:
        """Number of link traversals matching the given filters."""
        return len(self.link_messages(kind=kind, until=until, since=since))

    def drops(
        self,
        kind: Optional[MessageKind] = None,
        reason: Optional[str] = None,
        until: Optional[float] = None,
        since: Optional[float] = None,
    ) -> List[DropRecord]:
        """Dropped messages filtered by kind, fault reason and time window."""
        out = self.drop_records
        if kind is not None:
            out = [r for r in out if r.kind == kind]
        if reason is not None:
            out = [r for r in out if r.reason == reason]
        if until is not None:
            out = [r for r in out if r.time <= until]
        if since is not None:
            out = [r for r in out if r.time >= since]
        return list(out)

    def publishes(self, until: Optional[float] = None) -> List[PublishRecord]:
        """All publish records, optionally truncated at *until*."""
        if until is None:
            return list(self.publish_records)
        return [r for r in self.publish_records if r.time <= until]

    def clear(self) -> None:
        """Forget all recorded data (and with it the messages it kept alive)."""
        self.link_records.clear()
        self.delivery_records.clear()
        self.publish_records.clear()
        self.drop_records.clear()
