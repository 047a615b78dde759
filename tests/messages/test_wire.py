"""Wire-codec round-trip properties.

The asyncio backend serialises every message crossing a channel, so the
codec must be lossless for *every* message type a broker link carries
(those of :mod:`repro.messages` plus the logical-mobility messages
defined next to their payload types in :mod:`repro.core.location_filter`)
and for filters built from every constraint operator, and must refuse
every other type.  The property is exact::

    from_wire(to_wire(m)) == m          # via the JSON wire payload
    decode_message(encode_message(m)) == m   # via the byte form

Message equality is structural over the wire payload (including the
message id, which crosses the wire), so the round trip must preserve
everything — attributes, filters down to their canonical constraint
keys, nested sequenced notifications, movement graphs and uncertainty
plans.
"""

import inspect
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.adaptivity import UncertaintyPlan
from repro.core.location_filter import (
    LocationDependentFilter,
    LocationDependentSubscribe,
    LocationDependentUnsubscribe,
)
from repro.core.ploc import MovementGraph
from repro.filters.constraints import (
    AnyValue,
    Between,
    Equals,
    Exists,
    GreaterEqual,
    GreaterThan,
    InSet,
    LessEqual,
    LessThan,
    NotEquals,
    Prefix,
)
from repro.broker.base import Broker
from repro.filters.filter import Filter, MatchAll, MatchNone
from repro.filters.wire import constraint_from_wire, filter_from_wire, filter_to_wire
from repro.messages.admin import Advertise, Subscribe, Unadvertise, Unsubscribe
from repro.messages.control import ForwardAck, Heartbeat, SequencedForward
from repro.messages.mobility import (
    FetchRequest,
    LocationUpdate,
    MovedSubscribe,
    Replay,
)
from repro.messages.notification import Notification, SequencedNotification
from repro.messages.wire import (
    WireError,
    build_registry,
    decode_message,
    encode_frame,
    encode_message,
    message_type_registry,
)
from repro.telemetry.events import EVENT_REGISTRY, LogEvent, MetricSnapshotEvent, decode_event

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

ATTRIBUTES = ["service", "location", "cost", "floor", "car-type"]

scalar_values = st.one_of(
    st.text(max_size=8),
    st.integers(-1000, 1000),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.booleans(),
)
ordered_values = st.one_of(
    st.text(max_size=8),
    st.integers(-1000, 1000),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
)


def _between(pair_and_bounds):
    (left, right), low_inclusive, high_inclusive = pair_and_bounds
    low, high = sorted((left, right))
    return Between(low, high, low_inclusive, high_inclusive)


#: One strategy per constraint operator — the codec must cover them all.
constraints = st.one_of(
    st.just(AnyValue()),
    st.just(Exists()),
    scalar_values.map(Equals),
    scalar_values.map(NotEquals),
    ordered_values.map(LessThan),
    ordered_values.map(LessEqual),
    ordered_values.map(GreaterThan),
    ordered_values.map(GreaterEqual),
    st.tuples(
        st.one_of(
            st.tuples(st.integers(-100, 100), st.integers(-100, 100)),
            st.tuples(st.text(max_size=5), st.text(max_size=5)),
        ),
        st.booleans(),
        st.booleans(),
    ).map(_between),
    st.lists(scalar_values, min_size=1, max_size=4).map(InSet),
    st.text(max_size=6).map(Prefix),
)

plain_filters = st.dictionaries(
    st.sampled_from(ATTRIBUTES), constraints, min_size=0, max_size=4
).map(Filter)

filters = st.one_of(plain_filters, st.just(MatchAll()), st.just(MatchNone()))

attribute_maps = st.dictionaries(
    st.sampled_from(ATTRIBUTES + ["symbol", "price"]),
    scalar_values,
    min_size=0,
    max_size=4,
)

metas = st.one_of(
    st.none(), st.dictionaries(st.text(min_size=1, max_size=5), st.integers(), max_size=2)
)

identifiers = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=8
)

#: Subjects and subscription ids of admin messages: any text, non-ASCII too.
subjects = st.one_of(identifiers, st.text(max_size=6))


def _stamped(message, message_id):
    message.message_id = message_id
    return message


def identified(messages):
    """*messages* with a drawn non-zero id, as a network stamps them (a
    bare message carries 0), so the id's round trip is tested too."""
    return st.builds(_stamped, messages, st.integers(1, 2**53))


notifications = identified(
    st.builds(
        Notification,
        attributes=attribute_maps,
        publisher=identifiers,
        publisher_seq=st.integers(1, 10_000),
        publish_time=st.floats(0, 1e6, allow_nan=False),
        meta=metas,
    )
)

sequenced_notifications = st.builds(
    SequencedNotification,
    notification=notifications,
    client_id=identifiers,
    subscription_id=identifiers,
    sequence=st.integers(1, 10_000),
)


def _admin(message_type):
    return st.builds(
        message_type,
        filter_=filters,
        subject=subjects,
        subscription_id=st.one_of(st.none(), subjects),
        meta=metas,
    )


LOCATIONS = ["a", "b", "c", "d", "e"]


@st.composite
def movement_graphs(draw):
    names = draw(st.lists(st.sampled_from(LOCATIONS), min_size=1, max_size=5, unique=True))
    pairs = [(left, right) for i, left in enumerate(names) for right in names[i + 1 :]]
    edges = draw(
        st.lists(st.sampled_from(pairs), max_size=6, unique=True) if pairs else st.just([])
    )
    return MovementGraph.from_edges(edges, extra_locations=names)


@st.composite
def uncertainty_plans(draw):
    increments = draw(st.lists(st.integers(0, 2), min_size=0, max_size=4))
    levels = [0]
    for increment in increments:
        levels.append(levels[-1] + increment)
    name = draw(st.sampled_from(["static", "adaptive", "trivial", "flooding"]))
    return UncertaintyPlan(levels=levels, name=name)


@st.composite
def location_dependent_subscribes(draw):
    graph = draw(movement_graphs())
    template = draw(
        st.dictionaries(
            st.sampled_from(["service", "cost", "floor"]), constraints, max_size=3
        )
    )
    location_filter = LocationDependentFilter(
        template, location_attribute="location", vicinity=draw(st.integers(0, 3))
    )
    return LocationDependentSubscribe(
        client_id=draw(identifiers),
        subscription_id=draw(identifiers),
        location_filter=location_filter,
        movement_graph=graph,
        plan=draw(uncertainty_plans()),
        current_location=draw(st.sampled_from(graph.locations())),
        hop_index=draw(st.integers(0, 5)),
        meta=draw(metas),
    )


messages = identified(
    st.one_of(
        notifications,
        _admin(Subscribe),
        _admin(Unsubscribe),
        _admin(Advertise),
        _admin(Unadvertise),
        st.builds(
            MovedSubscribe,
            client_id=identifiers,
            subscription_id=identifiers,
            filter_=filters,
            last_sequence=st.integers(0, 10_000),
            new_border=identifiers,
            meta=metas,
        ),
        st.builds(
            FetchRequest,
            client_id=identifiers,
            subscription_id=identifiers,
            filter_=filters,
            last_sequence=st.integers(0, 10_000),
            junction=identifiers,
            meta=metas,
        ),
        st.builds(
            Replay,
            client_id=identifiers,
            subscription_id=identifiers,
            notifications=st.lists(sequenced_notifications, max_size=3),
            origin_border=identifiers,
            meta=metas,
        ),
        st.builds(
            LocationUpdate,
            client_id=identifiers,
            subscription_id=identifiers,
            old_location=st.one_of(st.none(), st.sampled_from(LOCATIONS)),
            new_location=st.sampled_from(LOCATIONS),
            hop_index=st.integers(0, 5),
            meta=metas,
        ),
        location_dependent_subscribes(),
        st.builds(
            LocationDependentUnsubscribe,
            client_id=identifiers,
            subscription_id=identifiers,
            meta=metas,
        ),
        st.builds(
            Heartbeat,
            sender=identifiers,
            sent_at=st.floats(0, 1e6, allow_nan=False),
            meta=metas,
        ),
        st.builds(
            SequencedForward,
            notification=notifications,
            sender=identifiers,
            link_seq=st.integers(1, 100_000),
            meta=metas,
        ),
        st.builds(
            ForwardAck,
            sender=identifiers,
            upto=st.integers(0, 100_000),
            meta=metas,
        ),
    )
)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(filter_=filters)
def test_filter_wire_round_trip(filter_):
    """Filters survive the wire bit-for-bit, through actual JSON."""
    payload = json.loads(json.dumps(filter_to_wire(filter_)))
    decoded = filter_from_wire(payload)
    assert decoded == filter_
    assert decoded.key() == filter_.key()


def canonical(payload):
    """The codec's specification: canonical JSON as ``json.dumps`` writes it."""
    return json.dumps(payload, separators=(",", ":"), sort_keys=True)


@settings(max_examples=100, deadline=None)
@given(filter_=filters)
def test_filter_wire_payload_is_built_once_and_survives_reuse(filter_):
    """The payload is memoised on the filter; encoding it leaves it intact."""
    payload = filter_to_wire(filter_)
    assert filter_to_wire(filter_) is payload
    before = json.dumps(payload)
    for message in (Subscribe(filter_, subject="s"), Unsubscribe(filter_, subject="s")):
        assert message.to_wire()["filter"] is payload
        assert decode_message(encode_message(message)) == message
    assert json.dumps(filter_to_wire(filter_)) == before
    assert filter_from_wire(json.loads(before)) == filter_
    if len(filter_):
        assert repr(filter_) is repr(filter_)


@settings(max_examples=300, deadline=None)
@given(message=messages)
def test_encode_message_is_canonical_json_of_to_wire(message):
    """The byte oracle: the codec writes exactly what ``json.dumps`` writes
    for the wire payload (meta, ``None`` subscription ids and non-ASCII
    text included)."""
    assert encode_message(message) == canonical(message.to_wire()).encode("utf-8")


@settings(max_examples=300, deadline=None)
@given(message=messages)
def test_message_wire_round_trip(message):
    """``from_wire(to_wire(m)) == m`` for every message type."""
    payload = json.loads(json.dumps(message.to_wire()))
    decoded = type(message).from_wire(payload)
    assert decoded == message
    assert decoded.message_id == message.message_id
    assert decoded.meta == message.meta
    assert decoded.kind == message.kind


@settings(max_examples=200, deadline=None)
@given(message=messages)
def test_message_byte_round_trip(message):
    """The byte-level form (used by the framed streams) is lossless too."""
    encoded = encode_message(message)
    decoded = decode_message(encoded)
    assert decoded == message
    # Canonical form: re-encoding the decoded message yields identical bytes.
    assert encode_message(decoded) == encoded
    # A frame is the same payload behind a 4-byte big-endian length prefix.
    frame = encode_frame(message)
    assert frame[4:] == encoded
    assert int.from_bytes(frame[:4], "big") == len(encoded)


#: What a mutated field is retyped to.
RETYPED_VALUES = [None, True, -1, 2.5, "x", [], [1], {}, {"type": 1}]


def _containers(node):
    """Every non-empty dict and list inside *node*, *node* included."""
    if not isinstance(node, (dict, list)):
        return
    if node:
        yield node
    for child in node.values() if isinstance(node, dict) else node:
        yield from _containers(child)


@st.composite
def mutated_payloads(draw):
    """A valid payload with one field dropped, retyped or wrapped, or wrapped whole."""
    payload = json.loads(encode_message(draw(messages)))
    mutation = draw(st.sampled_from(["drop", "retype", "wrap", "wrap whole"]))
    if mutation == "wrap whole":
        return json.dumps([payload]).encode("utf-8")
    node = draw(st.sampled_from(list(_containers(payload))))
    key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
    if mutation == "drop":
        del node[key]
    elif mutation == "retype":
        node[key] = draw(st.sampled_from(RETYPED_VALUES))
    else:
        node[key] = [node[key]]
    return json.dumps(payload).encode("utf-8")


@settings(max_examples=500, deadline=None)
@given(data=mutated_payloads())
def test_malformed_payloads_raise_wire_error_only(data):
    """A malformed payload raises ``WireError`` (the one error a reader
    catches), never another exception; one that decodes decodes the same
    way every time."""
    try:
        decoded = decode_message(data)
    except WireError:
        return
    assert decoded.to_wire() == decode_message(data).to_wire()


def _without(message, field):
    """*message*'s encoded payload with *field* dropped."""
    payload = json.loads(encode_message(message))
    del payload[field]
    return json.dumps(payload).encode("utf-8")


@pytest.mark.parametrize(
    "data, decode",
    [
        (b"[1,2]", decode_message),
        (b'"s"', decode_message),
        (b"null", decode_message),
        (b'{"type":[1]}', decode_message),
        (b'{"type":"Notification"}', decode_message),
        (
            b'{"type":"Notification","id":1,"attributes":{},"publisher":"p",'
            b'"publisher_seq":"x","publish_time":0}',
            decode_message,
        ),
        # Well-formed, but no broker handles it: a sequenced notification
        # travels inside a Replay, an event to the telemetry collector.
        (
            encode_message(SequencedNotification(Notification({"n": 1}, "p", 1), "c", "s", 1)),
            decode_message,
        ),
        (encode_message(LogEvent("B1", 0.0, "info", "up")), decode_message),
        # Every declared field is required, optional constructor arguments
        # included: the encoder always writes them.
        (_without(Subscribe(Filter({"a": 1}), "c/s", "s"), "subscription_id"), decode_message),
        (_without(MetricSnapshotEvent("B1", 0.0, {"n": 1}), "gauges"), decode_event),
    ],
    ids=[
        "list",
        "string",
        "null",
        "list-type",
        "missing-fields",
        "mistyped-field",
        "sequenced-notification",
        "telemetry-event",
        "subscribe-without-subscription-id",
        "snapshot-without-gauges",
    ],
)
def test_valid_json_of_the_wrong_shape_is_a_wire_error(data, decode):
    with pytest.raises(WireError):
        decode(data)


@pytest.mark.parametrize(
    "message_type",
    [*message_type_registry().values(), *EVENT_REGISTRY.values()],
    ids=lambda message_type: message_type.__name__,
)
def test_wire_fields_name_the_constructor_parameters_in_order(message_type):
    """``from_wire`` passes the declared fields to the constructor by
    position, so a declaration must name exactly its positional parameters
    (all but ``meta``), in order.  A parameter's trailing underscore
    (``filter_``, kept off the builtin) is not part of the field name."""
    parameters = [
        name.rstrip("_")
        for name, parameter in inspect.signature(message_type).parameters.items()
        if parameter.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD and name != "meta"
    ]
    fields = [field if isinstance(field, str) else field[0] for field in message_type.wire_fields]
    assert fields == parameters


@pytest.mark.parametrize(
    "decode, payload",
    [
        (filter_from_wire, {"kind": "some"}),
        (filter_from_wire, {"kind": "filter", "constraints": [["a"]]}),
        (filter_from_wire, {"kind": "filter", "constraints": [["a", ["near", 1]]]}),
        (constraint_from_wire, []),
        (constraint_from_wire, ["eq", ["colour", "red"]]),
        (constraint_from_wire, ["eq", "red"]),
    ],
    ids=["filter-kind", "filter-entry", "filter-operator", "empty", "value-tag", "value-shape"],
)
def test_filter_decoders_raise_the_message_codecs_wire_error(decode, payload):
    """Filters and constraints decode below the message codec, and fail with
    its one error type: a reader catching ``WireError`` catches them too."""
    with pytest.raises(WireError):
        decode(payload)


def test_registry_covers_every_concrete_message_type():
    """A link decodes exactly the message types a broker handles."""
    registry = message_type_registry()
    assert set(registry.values()) == set(Broker._MESSAGE_TABLE)
    for name, message_type in registry.items():
        assert message_type.__name__ == name


def test_registry_rejects_name_collisions():
    """Wire type names are the dispatch key: two classes sharing a name
    would silently shadow each other on decode, so the registry builder
    refuses duplicates."""

    class Heartbeat:  # same __name__ as the control-plane Heartbeat
        pass

    existing = tuple(message_type_registry().values())
    with pytest.raises(WireError, match="Heartbeat"):
        build_registry(existing + (Heartbeat,))
    # The real type set itself is collision-free.
    assert set(build_registry(existing)) == set(message_type_registry())


def test_equality_stays_total_without_a_codec():
    """A codec-less Message subclass (e.g. a test stub) must still support
    ``==`` — identity semantics, never NotImplementedError."""
    from repro.messages.base import Message

    class Probe(Message):
        __slots__ = ()

    left, right = Probe(), Probe()
    assert left == left
    assert left != right
    assert (left == right) is False
