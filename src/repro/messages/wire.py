"""Wire codec and frame format for messages.

The simulator backend passes message *objects* between brokers; the
asyncio backend (:mod:`repro.runtime.aio`) sends *bytes* over framed
streams, so every concrete :class:`~repro.messages.base.Message` type is
serialisable: :func:`encode_message` produces a canonical JSON payload
(via the message's ``to_wire``), :func:`decode_message` dispatches on the
``type`` field and rebuilds an equal message via the class's
``from_wire``.  Filters and constraints travel as their canonical keys
(:mod:`repro.filters.wire`), so routing-table identity survives the wire.

Frame format — the classic length-prefixed layout TCP needs to recover
message boundaries from a byte stream::

    +----------------------+----------------------+
    | payload length (u32, |  payload (UTF-8 JSON |
    |  big endian, 4 bytes)|  of Message.to_wire) |
    +----------------------+----------------------+

:func:`encode_frame` wraps a message into one frame;
:func:`decode_frame_payload` validates and decodes one extracted payload.
Readers pull the 4-byte header, then exactly that many payload bytes.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Type

from repro.filters.wire import WireError
from repro.messages.base import CANONICAL_JSON, Message

#: Upper bound on one frame's payload (a defensive cap, not a protocol
#: constant): a corrupted length prefix must not trigger a giant read.
MAX_FRAME_PAYLOAD = 64 * 1024 * 1024

#: Number of bytes of the frame's length prefix.
FRAME_HEADER_SIZE = 4


def _message_types() -> Dict[str, Type[Message]]:
    """Name -> class for every wire-codable message type.

    Imported lazily: :mod:`repro.core.location_filter` imports
    :mod:`repro.messages.base`, so importing it at module scope would
    make the codec's import order load-bearing.
    """
    from repro.broker.recovery import RoutingSnapshot
    from repro.core.location_filter import (
        LocationDependentSubscribe,
        LocationDependentUnsubscribe,
    )
    from repro.messages.admin import Advertise, Subscribe, Unadvertise, Unsubscribe
    from repro.messages.control import ForwardAck, Heartbeat, SequencedForward
    from repro.messages.mobility import (
        FetchRequest,
        LocationUpdate,
        MovedSubscribe,
        RelocationComplete,
        Replay,
    )
    from repro.messages.notification import Notification, SequencedNotification
    from repro.telemetry.events import LogEvent, MetricSnapshotEvent, SpanEvent

    types = (
        Subscribe,
        Unsubscribe,
        Advertise,
        Unadvertise,
        Notification,
        SequencedNotification,
        MovedSubscribe,
        FetchRequest,
        Replay,
        RelocationComplete,
        LocationUpdate,
        LocationDependentSubscribe,
        LocationDependentUnsubscribe,
        RoutingSnapshot,
        Heartbeat,
        SequencedForward,
        ForwardAck,
        MetricSnapshotEvent,
        SpanEvent,
        LogEvent,
    )
    return _build_registry(types)


def _build_registry(types) -> Dict[str, Type[Message]]:
    """Build the name -> class map, refusing name collisions.

    The class name is the wire dispatch key: two classes sharing a name
    would silently shadow each other on decode, so a collision (e.g. a
    new telemetry event type reusing an existing message name) is a hard
    error, not a last-one-wins overwrite.
    """
    registry: Dict[str, Type[Message]] = {}
    for message_type in types:
        name = message_type.__name__
        if name in registry:
            raise WireError(
                "duplicate message type name on the wire: {!r}".format(name)
            )
        registry[name] = message_type
    return registry


_REGISTRY: Dict[str, Type[Message]] = {}


def message_type_registry() -> Dict[str, Type[Message]]:
    """The (cached) name -> class registry of wire-codable messages."""
    if not _REGISTRY:
        _REGISTRY.update(_message_types())
    return _REGISTRY


def encode_message(message: Message) -> bytes:
    """Serialise *message* to canonical UTF-8 JSON bytes."""
    return CANONICAL_JSON.encode(message.to_wire()).encode("utf-8")


def parse_payload(data: bytes) -> Any:
    """The JSON value of *data*; bytes that are not UTF-8 JSON raise :class:`WireError`."""
    try:
        return json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise WireError("undecodable payload: {}".format(error)) from error


def decode_message(data: bytes) -> Message:
    """Rebuild a message from :func:`encode_message` output."""
    return message_from_payload(parse_payload(data))


def message_from_payload(payload: Any) -> Message:
    """Rebuild a message from an already-parsed wire payload.

    Every malformed payload — not an object, no string ``type``, an
    unknown type, a missing or mistyped field — raises :class:`WireError`.
    """
    type_name = payload.get("type") if isinstance(payload, dict) else None
    if not isinstance(type_name, str):
        raise WireError(
            "wire payload is not an object with a string type: {}".format(type(payload).__name__)
        )
    message_type = message_type_registry().get(type_name)
    if message_type is None:
        raise WireError("unknown message type on the wire: {!r}".format(type_name))
    try:
        return message_type.from_wire(payload)
    except (LookupError, TypeError, ValueError, AttributeError) as error:
        raise WireError("malformed {} payload: {!r}".format(type_name, error)) from error


def encode_frame(message: Message) -> bytes:
    """One length-prefixed frame carrying *message*."""
    payload = encode_message(message)
    if len(payload) > MAX_FRAME_PAYLOAD:
        raise WireError(
            "message payload of {} bytes exceeds the frame cap".format(len(payload))
        )
    return len(payload).to_bytes(FRAME_HEADER_SIZE, "big") + payload


def decode_frame_payload(header: bytes) -> int:
    """Validate a frame header and return the payload length it announces."""
    if len(header) != FRAME_HEADER_SIZE:
        raise WireError("truncated frame header: {!r}".format(header))
    length = int.from_bytes(header, "big")
    if length > MAX_FRAME_PAYLOAD:
        raise WireError("frame announces {} payload bytes, over the cap".format(length))
    return length
