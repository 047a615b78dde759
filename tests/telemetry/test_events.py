"""Round trips for every telemetry event type through the collector's decoder (Hypothesis)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broker.network import PubSubNetwork
from repro.messages.notification import Notification
from repro.messages.wire import WireError, encode_frame, encode_message
from repro.telemetry import RingBufferSink, TelemetryConfig
from repro.telemetry.events import (
    EVENT_REGISTRY,
    EVENT_TYPES,
    HOP_DELIVER,
    HOP_DISPATCH,
    HOP_FORWARD,
    LogEvent,
    MetricSnapshotEvent,
    SpanEvent,
    decode_event,
)
from repro.topology.builders import line_topology
from tests.oracles.trace import message_keeping_runtime

names = st.text(
    st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=12
)
times = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)
counter_values = st.integers(min_value=0, max_value=2**40)
counter_dicts = st.dictionaries(names, counter_values, max_size=6)
gauge_dicts = st.dictionaries(
    names,
    st.fixed_dictionaries({"last": times, "high": times}),
    max_size=4,
)
histogram_dicts = st.dictionaries(
    names,
    st.fixed_dictionaries(
        {
            "bounds": st.lists(times, max_size=4),
            "bucket_counts": st.lists(counter_values, max_size=5),
            "count": counter_values,
            "sum": times,
            "max": times,
        }
    ),
    max_size=3,
)
attr_values = st.one_of(
    st.integers(min_value=-(2**31), max_value=2**31),
    st.booleans(),
    names,
    times,
)
attr_dicts = st.dictionaries(names, attr_values, max_size=5)

snapshot_events = st.builds(
    MetricSnapshotEvent,
    broker=names,
    time=times,
    counters=counter_dicts,
    gauges=gauge_dicts,
    histograms=histogram_dicts,
)
span_events = st.builds(
    SpanEvent,
    trace_id=names,
    broker=names,
    hop=st.sampled_from((HOP_DISPATCH, HOP_FORWARD, HOP_DELIVER)),
    time=times,
    peer=st.one_of(st.none(), names),
    attrs=attr_dicts,
)
log_events = st.builds(
    LogEvent,
    broker=names,
    time=times,
    level=st.sampled_from(("debug", "info", "warn", "error")),
    text=st.text(max_size=64),
)
events = st.one_of(snapshot_events, span_events, log_events)


@settings(max_examples=150, deadline=None)
@given(event=events)
def test_event_wire_round_trip(event):
    """Every telemetry event survives the frame codec and :func:`decode_event` losslessly."""
    encoded = encode_message(event)
    decoded = decode_event(encoded)
    assert type(decoded) is type(event)
    assert decoded == event
    # Canonical: re-encoding yields identical bytes.
    assert encode_message(decoded) == encoded
    # Framed form: same payload behind the 4-byte length prefix.
    frame = encode_frame(event)
    assert frame[4:] == encoded
    assert int.from_bytes(frame[:4], "big") == len(encoded)


def test_every_event_type_covered_by_strategy():
    """EVENT_TYPES, the decoder's table and the strategies above must stay in sync."""
    assert set(EVENT_TYPES) == {MetricSnapshotEvent, SpanEvent, LogEvent}
    assert set(EVENT_REGISTRY.values()) == set(EVENT_TYPES)


def test_the_event_decoder_refuses_link_messages():
    """A link message is well-formed JSON to the collector, but not an event."""
    with pytest.raises(WireError, match="unknown message type"):
        decode_event(encode_message(Notification({"n": 1}, "p", 1)))


def _published_ids(telemetry):
    """``(link message ids, event ids)`` of one publish on a fresh 3-broker line."""
    sink = RingBufferSink()
    config = TelemetryConfig(sink_factory=lambda: sink) if telemetry else None
    runtime = message_keeping_runtime(latency=0.05)
    network = PubSubNetwork(line_topology(3), runtime=runtime, telemetry=config)
    producer = network.add_client("P", "B1")
    producer.advertise({"topic": "news"})
    network.add_client("C", "B3").subscribe({"topic": "news"})
    network.settle()
    producer.publish({"topic": "news"})
    network.settle()
    network.close()
    links = [message.message_id for message in network.trace.sent]
    return links, [event.message_id for event in sink.events()]


def test_event_ids_do_not_perturb_message_ids():
    """A traced network numbers its events apart from its messages: the
    messages carry the ids an untraced network gives them."""
    traced, events = _published_ids(telemetry=True)
    untraced, no_events = _published_ids(telemetry=False)
    assert traced == untraced
    assert events and not no_events


def test_event_ids_are_sequential_per_network():
    """Each traced network numbers its events 1, 2, 3 ... in emission
    order, whatever ran before it; an event built outside a network carries 0."""
    _, events = _published_ids(telemetry=True)
    assert events == list(range(1, len(events) + 1))
    assert _published_ids(telemetry=True)[1] == events
    assert LogEvent("B", 0.0, "info", "x").message_id == 0
