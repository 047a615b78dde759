"""Base message type and message-kind taxonomy."""

from __future__ import annotations

import enum
import itertools
from types import MappingProxyType
from typing import Any, Dict, Mapping, Optional, Tuple, TypeVar

#: The ``meta`` of every message built without one: shared and read-only,
#: so an empty ``meta`` costs no dict per message.
EMPTY_META: Mapping[str, Any] = MappingProxyType({})


class MessageKind(enum.Enum):
    """Coarse classification used by metrics and by the Figure 9 counters.

    The paper's Figure 9 counts "the total number of messages
    (notifications and administrative messages)"; keeping the kind on
    every message lets the metrics layer split the totals the same way.
    """

    NOTIFICATION = "notification"
    ADMIN = "admin"
    MOBILITY = "mobility"
    #: Liveness / reliability plumbing (heartbeats, forwarding acks):
    #: never journaled, never routed — link-local traffic between
    #: directly connected brokers.
    CONTROL = "control"
    #: Observability records (metric snapshots, spans, log events):
    #: never sent over broker links at all — they travel out-of-band to
    #: telemetry sinks and collectors (see :mod:`repro.telemetry`).
    TELEMETRY = "telemetry"


class Message:
    """Base class of the messages brokers exchange, and of telemetry events.

    Every message carries a ``message_id`` and an optional free-form
    ``meta`` dictionary used by traces and tests (without one, the
    read-only :data:`EMPTY_META`).  Construction draws no id: a message
    built outside any network carries id ``0``.  A network's brokers
    stamp the messages they build from the network's one
    :class:`MessageIds`, so ids are unique within a network and a run's
    ids depend only on that network, never on what else ran in the
    process.

    Every concrete message type is wire-codable through the one codec
    here: it declares its :attr:`wire_fields`, and :meth:`to_wire` /
    :meth:`from_wire` build and read its payload (type name, message id,
    meta, one entry per field) from that declaration.  ``meta`` must
    hold only JSON-representable values.  A link decodes only the types
    a broker handles (:func:`~repro.messages.wire.message_type_registry`);
    a sequenced notification travels inside a ``Replay``, and telemetry
    events are decoded by the collector's own table.  The recovery
    journal's records and routing snapshots are not messages at all.
    """

    kind: MessageKind = MessageKind.ADMIN

    #: The wire fields of a concrete type, once each, in constructor order:
    #: an attribute name whose value is JSON-friendly as it is, or
    #: ``(name, (encode, decode))`` with the pair its value type declares
    #: (``repro.filters.wire.FILTER``, for one).  ``None``: no codec.
    wire_fields: Optional[Tuple[Any, ...]] = None

    __slots__ = ("message_id", "meta")

    def __init__(self, meta: Optional[Dict[str, Any]] = None) -> None:
        self.message_id: int = 0
        self.meta: Mapping[str, Any] = dict(meta) if meta else EMPTY_META

    def describe(self) -> str:
        """Short human-readable description used by traces."""
        return "{}#{}".format(type(self).__name__, self.message_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.describe()

    # ------------------------------------------------------------------
    # Wire codec
    # ------------------------------------------------------------------
    def to_wire(self) -> Dict[str, Any]:
        """The complete JSON-friendly wire payload of this message.

        A plain field's value goes in as it is (shared, not copied:
        callers encode the payload and must not change it).
        """
        fields = self.wire_fields
        if fields is None:
            raise NotImplementedError("{} declares no wire fields".format(type(self).__name__))
        payload: Dict[str, Any] = {"type": type(self).__name__, "id": self.message_id}
        if self.meta:
            payload["meta"] = dict(self.meta)
        for field in fields:
            if isinstance(field, str):
                payload[field] = getattr(self, field)
            else:
                name, (encode, _) = field
                payload[name] = encode(getattr(self, name))
        return payload

    @classmethod
    def from_wire(cls, payload: Dict[str, Any]) -> "Message":
        """Rebuild a message of this concrete type from its wire payload.

        The declared fields are passed to the constructor in order, so it
        validates and coerces them; a missing field raises ``KeyError``.
        The message id crosses the wire too, so a decoded message keeps
        the identity the sender assigned; decoding draws no id.
        """
        fields = cls.wire_fields
        if fields is None:
            raise NotImplementedError("{} declares no wire fields".format(cls.__name__))
        values = []
        for field in fields:
            if isinstance(field, str):
                values.append(payload[field])
            else:
                name, (_, decode) = field
                values.append(decode(payload[name]))
        message = cls(*values)
        message.message_id = int(payload["id"])
        meta = payload.get("meta")
        if meta:
            message.meta = dict(meta)
        return message

    # ------------------------------------------------------------------
    # Equality
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        """Structural equality via the wire payload.

        Two messages are equal when they are the same concrete type and
        serialise to the same wire payload (which includes the message
        id).  Hashing stays identity-based — messages are mutable-ish
        transport envelopes, never dictionary keys by value.
        """
        if self is other:
            return True
        if not isinstance(other, Message):
            return NotImplemented
        if type(self) is not type(other):
            return False
        try:
            return self.to_wire() == other.to_wire()
        except NotImplementedError:
            # A codec-less subclass (e.g. a test stub): fall back to the
            # pre-codec identity semantics instead of blowing up ==.
            return NotImplemented

    __hash__ = object.__hash__


M = TypeVar("M", bound=Message)


class MessageIds:
    """A network's message-id source: ids 1, 2, 3 ... in stamping order.

    A network owns one and hands it to every broker it builds; a broker
    built on its own makes its own.  Each construction site stamps the
    message it builds, ``ids.stamp(Subscribe(...))``.
    """

    __slots__ = ("_next",)

    def __init__(self) -> None:
        self._next = itertools.count(1).__next__

    def stamp(self, message: M) -> M:
        """Give *message* the next id and return it."""
        message.message_id = self._next()
        return message
