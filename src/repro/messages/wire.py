"""Wire codec and frame format for link messages.

The simulator backend passes message *objects* between brokers; the
asyncio backend (:mod:`repro.runtime.aio`) sends *bytes* over framed
streams.  What a message's payload holds is decided in one place,
:class:`~repro.messages.base.Message`: every concrete type declares its
``wire_fields`` and ``Message.to_wire`` / ``from_wire`` build and read
the payload from that declaration.  This module renders payloads to
bytes and back.  A link carries exactly the message types a broker
handles (one row each in ``Broker._MESSAGE_TABLE``), and
:func:`message_type_registry` lists exactly those: :func:`encode_message`
produces a canonical JSON payload, :func:`decode_message` dispatches on
the ``type`` field and rebuilds an equal message via the class's
``from_wire``, and a payload of any other type, or of a listed type with
a field missing or mistyped, raises :class:`WireError`, so a reader
counts and drops it.  Filters and constraints travel as their canonical
keys (:mod:`repro.filters.wire`), so routing-table identity survives the
wire.  The telemetry collector decodes its events through a table of its
own (:func:`build_registry`); the recovery journal's records and routing
snapshots are not messages.

The canonical format — :data:`CANONICAL_JSON` over a message's
``to_wire`` payload — is rendered here and nowhere else:
:func:`message_json` renders a message, :func:`journal_record` a
recovery-journal record.  The four admin messages and ``MovedSubscribe``
are formatted in one pass around their filter's memoised JSON text;
everything else goes through the encoder.  Either way the bytes are the
encoder's.

A journal record is ``[sequence, origin, entry]``, and it writes each
filter once: the first record that carries a filter defines a number
for it, ``"filter": [number, filter]``, and every later record of the
same journal writes ``"filter": number``.  Links always carry the
filter itself.

Frame format — the classic length-prefixed layout TCP needs to recover
message boundaries from a byte stream::

    +----------------------+----------------------+
    | payload length (u32, |  payload (UTF-8 JSON |
    |  big endian, 4 bytes)|  of Message.to_wire) |
    +----------------------+----------------------+

:func:`encode_frame` wraps a message into one frame;
:func:`decode_frame_payload` validates and decodes one extracted payload.
Readers pull the 4-byte header, then exactly that many payload bytes.
The recovery journal stores its records in the same frames.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import Any, Dict, Mapping, Optional, Type

from repro.filters.filter import Filter
from repro.filters.wire import FILTER, WireError, filter_to_wire
from repro.messages.admin import Advertise, Subscribe, Unadvertise, Unsubscribe
from repro.messages.base import Message
from repro.messages.mobility import MovedSubscribe

#: The canonical JSON encoder of the codec, the journal and the table
#: encoding; stateless, so built once (``json.dumps`` with these settings
#: builds one per call).
CANONICAL_JSON = json.JSONEncoder(separators=(",", ":"), sort_keys=True)

#: Upper bound on one frame's payload (a defensive cap, not a protocol
#: constant): a corrupted length prefix must not trigger a giant read.
MAX_FRAME_PAYLOAD = 64 * 1024 * 1024

#: Number of bytes of the frame's length prefix.
FRAME_HEADER_SIZE = 4


def _message_types() -> Dict[str, Type[Message]]:
    """Name -> class for every message type a link carries.

    Imported lazily: :mod:`repro.core.location_filter` imports
    :mod:`repro.messages.base`, so importing it at module scope would
    make the codec's import order load-bearing.
    """
    from repro.core.location_filter import (
        LocationDependentSubscribe,
        LocationDependentUnsubscribe,
    )
    from repro.messages.control import ForwardAck, Heartbeat, SequencedForward
    from repro.messages.mobility import (
        FetchRequest,
        LocationUpdate,
        MovedSubscribe,
        Replay,
    )
    from repro.messages.notification import Notification

    types = (
        Subscribe,
        Unsubscribe,
        Advertise,
        Unadvertise,
        Notification,
        MovedSubscribe,
        FetchRequest,
        Replay,
        LocationUpdate,
        LocationDependentSubscribe,
        LocationDependentUnsubscribe,
        Heartbeat,
        SequencedForward,
        ForwardAck,
    )
    return build_registry(types)


def build_registry(types) -> Dict[str, Type[Message]]:
    """Build a name -> class decode table, refusing name collisions.

    The class name is the wire dispatch key: two classes sharing a name
    would silently shadow each other on decode, so a collision is a hard
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
    """The (cached) name -> class registry of the messages a link carries."""
    if not _REGISTRY:
        _REGISTRY.update(_message_types())
    return _REGISTRY


#: The messages :func:`message_json` and :func:`journal_record` format in
#: one pass around the text of their ``filter`` field.
_FORMATTED = (Subscribe, Unsubscribe, Advertise, Unadvertise, MovedSubscribe)

#: A ``wire_fields`` entry the journal writes as a filter number.
_NUMBERED = ("filter", FILTER)

#: ``MovedSubscribe``'s canonical JSON, keys in sorted order.
_MOVED_SUBSCRIBE = (
    '{"client_id":%s,"filter":%s,"id":%d,"last_sequence":%d,"new_border":%s,'
    '"subscription_id":%s,"type":"MovedSubscribe"}'
)


def _filter_json(filter_: Filter) -> str:
    """``CANONICAL_JSON.encode(filter_to_wire(filter_))``, memoised on the filter.

    The text lives in ``Filter._json`` and dies with the filter (unless a
    recovery journal's filter table keeps it), so a filter is rendered
    once however many hops and journals carry it.
    """
    text = filter_._json
    if text is None:
        text = filter_._json = CANONICAL_JSON.encode(filter_to_wire(filter_))
    return text


def _formatted(message: Message, filter_text: str) -> Optional[str]:
    """The canonical JSON of a :data:`_FORMATTED` *message* with *filter_text*
    standing in its ``filter`` field, or ``None`` where the format does not
    take the message: a ``meta``, or an identifier that is not a ``str``.

    The keys are written in sorted order and the strings escaped by the
    function the encoder itself uses.
    """
    if message.meta:
        return None
    if type(message) is MovedSubscribe:
        identifiers = (message.client_id, message.new_border, message.subscription_id)
        if any(type(identifier) is not str for identifier in identifiers):
            return None
        client_id, new_border, subscription_id = map(encode_basestring_ascii, identifiers)
        return _MOVED_SUBSCRIBE % (
            client_id,
            filter_text,
            message.message_id,
            message.last_sequence,
            new_border,
            subscription_id,
        )
    subject = message.subject
    subscription_id = message.subscription_id
    if type(subject) is str and (subscription_id is None or type(subscription_id) is str):
        return '{"filter":%s,"id":%d,"subject":%s,"subscription_id":%s,"type":"%s"}' % (
            filter_text,
            message.message_id,
            encode_basestring_ascii(subject),
            "null" if subscription_id is None else encode_basestring_ascii(subscription_id),
            type(message).__name__,
        )
    return None


def message_json(message: Message) -> str:
    """The canonical JSON text of *message*: ``CANONICAL_JSON.encode(message.to_wire())``.

    The admin messages and ``MovedSubscribe`` are formatted directly
    around :func:`_filter_json`'s text where :func:`_formatted` takes
    them; everything else goes through the encoder.
    """
    if type(message) in _FORMATTED:
        text = _formatted(message, _filter_json(message.filter))
        if text is not None:
            return text
    return CANONICAL_JSON.encode(message.to_wire())


def _capped(payload: bytes) -> bytes:
    """*payload*, or :class:`WireError` when it is over the frame cap."""
    if len(payload) > MAX_FRAME_PAYLOAD:
        raise WireError("payload of {} bytes exceeds the frame cap".format(len(payload)))
    return payload


def encode_message(message: Message) -> bytes:
    """Serialise *message* to canonical UTF-8 JSON bytes."""
    return message_json(message).encode("utf-8")


def journal_record(sequence: int, origin: str, entry: Message, numbers: Dict[str, int]) -> bytes:
    """One recovery-journal frame payload: canonical JSON ``[sequence, origin, entry]``.

    *sequence* is an ``int`` and *origin* a ``str``, as
    :class:`~repro.broker.recovery.AdminLogRecord` holds them (its decoder
    refuses any other record).  *entry* is its wire payload, except that
    a field declared ``("filter", FILTER)`` holds a number: *numbers*
    maps the canonical text of every filter the journal has defined to
    its number.  A filter found there is written as its number; any
    other is defined here, written ``[number, filter]`` with the next
    number, ``len(numbers)``, and added to *numbers* once the record is
    known to fit its frame.  A :data:`_FORMATTED` entry is formatted in
    one pass around that field (a filter's text is rendered once, by
    :func:`_filter_json`); every other goes through the encoder.

    A payload over the frame cap raises :class:`WireError` and defines
    nothing: the journal's reader would take its frame for a torn one.
    """
    defined = None
    if _NUMBERED in entry.wire_fields:
        text = _filter_json(entry.filter)
        number = numbers.get(text)
        if number is None:
            defined, number = text, len(numbers)
            field = "[%d,%s]" % (number, text)
        else:
            field = "%d" % number
        rendered = _formatted(entry, field) if type(entry) in _FORMATTED else None
        if rendered is None:
            payload = entry.to_wire()
            payload["filter"] = number if defined is None else [number, payload["filter"]]
            rendered = CANONICAL_JSON.encode(payload)
    else:
        rendered = message_json(entry)
    data = _capped(
        ("[%d,%s,%s]" % (sequence, encode_basestring_ascii(origin), rendered)).encode("utf-8")
    )
    if defined is not None:
        numbers[defined] = number
    return data


def parse_payload(data: bytes) -> Any:
    """The JSON value of *data*; bytes that are not UTF-8 JSON raise :class:`WireError`."""
    try:
        return json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise WireError("undecodable payload: {}".format(error)) from error


def decode_message(data: bytes) -> Message:
    """Rebuild a message from :func:`encode_message` output."""
    return message_from_payload(parse_payload(data))


def message_from_payload(
    payload: Any, registry: Optional[Mapping[str, Type[Message]]] = None
) -> Message:
    """Rebuild a message from an already-parsed wire payload.

    The ``type`` field is looked up in *registry*, by default
    :func:`message_type_registry`.  Every malformed payload — not an
    object, no string ``type``, a type the registry does not list, a
    missing or mistyped field — raises :class:`WireError`.
    """
    type_name = payload.get("type") if isinstance(payload, dict) else None
    if not isinstance(type_name, str):
        raise WireError(
            "wire payload is not an object with a string type: {}".format(type(payload).__name__)
        )
    message_type = (registry or message_type_registry()).get(type_name)
    if message_type is None:
        raise WireError("unknown message type on the wire: {!r}".format(type_name))
    try:
        return message_type.from_wire(payload)
    except (LookupError, TypeError, ValueError, AttributeError) as error:
        raise WireError("malformed {} payload: {!r}".format(type_name, error)) from error


def encode_frame(message: Message) -> bytes:
    """One length-prefixed frame carrying *message*."""
    payload = _capped(encode_message(message))
    return len(payload).to_bytes(FRAME_HEADER_SIZE, "big") + payload


def decode_frame_payload(header: bytes) -> int:
    """Validate a frame header and return the payload length it announces."""
    if len(header) != FRAME_HEADER_SIZE:
        raise WireError("truncated frame header: {!r}".format(header))
    length = int.from_bytes(header, "big")
    if length > MAX_FRAME_PAYLOAD:
        raise WireError("frame announces {} payload bytes, over the cap".format(length))
    return length
