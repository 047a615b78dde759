"""The canonical renderings equal the encoder's bytes.

:func:`~repro.messages.wire.message_json` formats the four admin
messages around their filter's memoised JSON text, and
:func:`~repro.messages.wire.journal_record` formats a journal record
around its entry's rendering; every other case takes
``CANONICAL_JSON.encode`` of the ``to_wire`` payload.  Whichever path a
message takes, the text is the encoder's (and ``json.dumps``'s) and
decodes back to an equal message.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broker.recovery import AdminLogRecord
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
from repro.filters.filter import Filter, MatchAll, MatchNone
from repro.filters.wire import filter_to_wire
from repro.messages.admin import Advertise, Subscribe, Unadvertise, Unsubscribe
from repro.messages.mobility import MovedSubscribe
from repro.messages.wire import CANONICAL_JSON, decode_message, journal_record, message_json

from tests.broker.test_journal_frames import log_entries
from tests.messages.test_wire import _admin, canonical, metas, subjects

ADMIN_TYPES = (Subscribe, Unsubscribe, Advertise, Unadvertise)

admin_messages = st.one_of(*(_admin(message_type) for message_type in ADMIN_TYPES))

#: One filter per constraint operator, plus the two special filters.
EVERY_KIND = [
    Filter({"a": AnyValue()}),
    Filter({"a": Exists()}),
    Filter({"a": Equals("é\"\\\n")}),
    Filter({"a": NotEquals(True)}),
    Filter({"a": LessThan(1.5)}),
    Filter({"a": LessEqual(-3)}),
    Filter({"a": GreaterThan("m")}),
    Filter({"a": GreaterEqual(1e300)}),
    Filter({"a": Between(1, 9, True, False)}),
    Filter({"a": InSet(["x", 2, False])}),
    Filter({"a": Prefix("☃")}),
    Filter({"a": Equals(1), "b": Prefix("p"), "c": Between("a", "b")}),
    Filter(),
    MatchAll(),
    MatchNone(),
]


def _check(message):
    text = message_json(message)
    assert text == CANONICAL_JSON.encode(message.to_wire()) == canonical(message.to_wire())
    decoded = decode_message(text.encode("utf-8"))
    assert decoded == message
    assert decoded.meta == message.meta


@settings(max_examples=400, deadline=None)
@given(message=admin_messages)
def test_an_admin_message_renders_as_the_encoder_writes_it(message):
    """Meta or none, ``None`` or text subscription ids, non-ASCII subjects
    and strings the encoder escapes."""
    _check(message)


@pytest.mark.parametrize("message_type", ADMIN_TYPES)
@pytest.mark.parametrize("filter_", EVERY_KIND, ids=repr)
def test_every_filter_kind_renders_as_the_encoder_writes_it(message_type, filter_):
    for subscription_id in (None, "s-1", "é\t"):
        _check(message_type(filter_, subject="c\"1", subscription_id=subscription_id))
    _check(message_type(filter_, subject="c1", meta={"k": [1, "v"]}))


@pytest.mark.parametrize("message_type", ADMIN_TYPES)
def test_identifiers_the_format_does_not_take_go_through_the_encoder(message_type):
    """A subject or subscription id that is not a ``str`` (a decoded payload
    may carry one) is written as the encoder writes it."""
    for subject, subscription_id in ((None, None), (7, "s"), ("c", 3), ("c", 2.5)):
        message = message_type(Filter({"a": Equals(1)}), subject, subscription_id)
        assert message_json(message) == CANONICAL_JSON.encode(message.to_wire())


@settings(max_examples=200, deadline=None)
@given(
    client_id=st.one_of(subjects, st.none(), st.integers()),
    subscription_id=st.one_of(subjects, st.none()),
    filter_=st.sampled_from(EVERY_KIND),
    last_sequence=st.integers(0, 2**62),
    new_border=st.one_of(subjects, st.integers()),
    meta=metas,
)
def test_a_moved_subscribe_renders_as_the_encoder_writes_it(
    client_id, subscription_id, filter_, last_sequence, new_border, meta
):
    """Text identifiers are formatted directly; any other identifier, and
    a ``meta``, takes the encoder."""
    _check(MovedSubscribe(client_id, subscription_id, filter_, last_sequence, new_border, meta))


@settings(max_examples=400, deadline=None)
@given(
    sequence=st.integers(1, 2**62),
    origin=subjects,
    entry=st.one_of(admin_messages, log_entries),
)
def test_a_journal_record_renders_as_the_encoder_writes_it(sequence, origin, entry):
    """The record that defines its entry's filter writes ``[number, filter]``
    in its place, and the next record of that filter writes the number."""
    earlier = filter_to_wire(Filter({"earlier": Exists()}))
    numbers = {CANONICAL_JSON.encode(earlier): 0}
    filters = [(0, earlier)]
    wire = entry.to_wire()
    for field in ([1, wire["filter"]], 1) if "filter" in wire else (None,):
        data = journal_record(sequence, origin, entry, numbers)
        payload = [sequence, origin, dict(wire, filter=field) if field is not None else wire]
        assert data == CANONICAL_JSON.encode(payload).encode("utf-8")
        assert data == json.dumps(payload, separators=(",", ":"), sort_keys=True).encode("utf-8")
        decoded = AdminLogRecord.decode(data, filters)
        assert (decoded.sequence, decoded.origin, decoded.entry) == (sequence, origin, entry)
        assert decoded.entry.meta == entry.meta
    assert len(numbers) == len(filters) == (2 if "filter" in wire else 1)
