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
import math

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
from repro.messages.admin import Advertise, Subscribe, Unadvertise, Unsubscribe
from repro.messages.wire import CANONICAL_JSON, decode_message, journal_record, message_json

from tests.broker.test_journal_frames import log_entries
from tests.messages.test_wire import _admin, canonical, subjects

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


logged_at = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -0.0, 1e-320, 1e22]),
)


@settings(max_examples=400, deadline=None)
@given(
    sequence=st.integers(1, 2**62),
    logged_at=logged_at,
    origin=subjects,
    entry=st.one_of(admin_messages, log_entries),
)
def test_a_journal_record_renders_as_the_encoder_writes_it(sequence, logged_at, origin, entry):
    """Non-finite clock readings included: the encoder writes ``Infinity``
    and ``NaN`` where ``repr`` writes ``inf`` and ``nan``."""
    data = journal_record(sequence, logged_at, origin, entry)
    payload = [sequence, logged_at, origin, entry.to_wire()]
    assert data == CANONICAL_JSON.encode(payload).encode("utf-8")
    assert data == json.dumps(payload, separators=(",", ":"), sort_keys=True).encode("utf-8")
    decoded = AdminLogRecord.decode(data)
    assert (decoded.sequence, decoded.origin, decoded.entry) == (sequence, origin, entry)
    assert decoded.entry.meta == entry.meta
    assert decoded.logged_at == logged_at or math.isnan(logged_at)
    assert journal_record(*decoded) == data
