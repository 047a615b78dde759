"""The routing snapshot's codec: canonical JSON of its body.

A :class:`~repro.broker.recovery.RoutingSnapshot` is stored, never sent
over a link, so it is not a message: its bytes are the canonical JSON of
its body (no ``type``, no ``id``), and :meth:`RoutingSnapshot.decode`
reads them back losslessly and raises ``WireError`` — the one error the
disk store catches — on anything malformed.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broker.recovery import RoutingSnapshot
from repro.filters.filter import Filter
from repro.messages.admin import Subscribe
from repro.messages.wire import WireError

from tests.messages.test_wire import (
    RETYPED_VALUES,
    _containers,
    canonical,
    filters,
    identifiers,
    location_dependent_subscribes,
)

#: Snapshot rows: (filter, destination, subjects, seq).
snapshot_rows = st.tuples(
    filters,
    identifiers,
    st.lists(identifiers, min_size=1, max_size=3, unique=True).map(tuple),
    st.integers(1, 10_000),
)

#: Forwarded (filter, subject) pairs for one neighbour.
forwarded_pairs = st.lists(st.tuples(filters, identifiers), max_size=3)


@st.composite
def routing_snapshots(draw):
    return RoutingSnapshot(
        broker=draw(identifiers),
        taken_at=draw(st.floats(0, 1e6, allow_nan=False)),
        log_index=draw(st.integers(0, 10_000)),
        subscription_rows=draw(st.lists(snapshot_rows, max_size=4)),
        subscription_row_seq=draw(st.integers(0, 20_000)),
        advertisement_rows=draw(st.lists(snapshot_rows, max_size=4)),
        advertisement_row_seq=draw(st.integers(0, 20_000)),
        forwarded_subscriptions=draw(st.dictionaries(identifiers, forwarded_pairs, max_size=3)),
        forwarded_advertisements=draw(st.dictionaries(identifiers, forwarded_pairs, max_size=3)),
        logical_states=draw(
            st.lists(
                st.tuples(
                    location_dependent_subscribes(),
                    st.lists(identifiers, max_size=3, unique=True).map(tuple),
                ),
                max_size=2,
            )
        ),
    )


BODY_KEYS = {
    "broker",
    "taken_at",
    "log_index",
    "subscription",
    "advertisement",
    "forwarded_subscriptions",
    "forwarded_advertisements",
    "logical",
}


@settings(max_examples=200, deadline=None)
@given(snapshot=routing_snapshots())
def test_snapshot_round_trip(snapshot):
    """The bytes are the body's canonical JSON, with no message envelope, as
    ``json.dumps`` writes them; decoding gives back every field, and
    re-encoding the same bytes."""
    data = snapshot.encode()
    body = json.loads(data)
    assert set(body) == BODY_KEYS
    assert data == canonical(body).encode("utf-8")
    decoded = RoutingSnapshot.decode(data)
    assert decoded.encode() == data
    for name in RoutingSnapshot.__slots__:
        assert getattr(decoded, name) == getattr(snapshot, name), name
    for (subscribe, _), (original, _) in zip(decoded.logical_states, snapshot.logical_states):
        assert (subscribe.message_id, subscribe.meta) == (original.message_id, original.meta)


@st.composite
def malformed_snapshots(draw):
    """Snapshot bytes truncated, or with one field dropped, retyped or wrapped."""
    data = draw(routing_snapshots()).encode()
    mutation = draw(st.sampled_from(["truncate", "drop", "retype", "wrap", "wrap whole"]))
    if mutation == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))]
    body = json.loads(data)
    if mutation == "wrap whole":
        return json.dumps([body]).encode("utf-8")
    node = draw(st.sampled_from(list(_containers(body))))
    key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
    if mutation == "drop":
        del node[key]
    elif mutation == "retype":
        node[key] = draw(st.sampled_from(RETYPED_VALUES))
    else:
        node[key] = [node[key]]
    return json.dumps(body).encode("utf-8")


@settings(max_examples=400, deadline=None)
@given(data=malformed_snapshots())
def test_malformed_snapshot_bytes_raise_wire_error_only(data):
    """A bad snapshot raises ``WireError`` and nothing else (the disk store
    ignores exactly that); one that decodes decodes the same way every time."""
    try:
        decoded = RoutingSnapshot.decode(data)
    except WireError:
        return
    assert decoded.encode() == RoutingSnapshot.decode(data).encode()


def _snapshot_holding(subscribe_payload):
    """A snapshot's bytes whose one logical state is *subscribe_payload*."""
    body = {
        "broker": "B1",
        "taken_at": 0.0,
        "log_index": 0,
        "subscription": {"rows": [], "row_seq": 0},
        "advertisement": {"rows": [], "row_seq": 0},
        "forwarded_subscriptions": {},
        "forwarded_advertisements": {},
        "logical": [{"subscribe": subscribe_payload, "forwarded_to": []}],
    }
    return canonical(body).encode("utf-8")


@given(
    location_dependent_subscribes(),
    st.sampled_from([None, "Subscribe", "LocationDependentUnsubscribe", "LocationUpdate"]),
)
@settings(max_examples=40, deadline=None)
def test_a_logical_entry_of_another_message_type_is_a_wire_error(subscribe, retype):
    """A logical state is restored from its ``LocationDependentSubscribe``;
    a snapshot holding any other message there is malformed, whether its
    fields differ (a ``Subscribe``) or would fit (a retyped payload)."""
    with pytest.raises(WireError, match="malformed routing snapshot"):
        RoutingSnapshot.decode(
            _snapshot_holding(Subscribe(Filter({"a": 1}), subject="c/s").to_wire())
        )
    payload = subscribe.to_wire()
    if retype is None:
        (restored, _), = RoutingSnapshot.decode(_snapshot_holding(payload)).logical_states
        assert restored.to_wire() == payload
        return
    payload["type"] = retype
    with pytest.raises(WireError, match="malformed routing snapshot"):
        RoutingSnapshot.decode(_snapshot_holding(payload))
