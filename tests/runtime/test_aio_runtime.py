"""AioRuntime behaviour tests (beyond backend parity).

Covers the failure paths the parity scenarios never hit: broker crashes
inside message processing must surface from ``settle`` (not hang the
quiescence loop or vanish with the reader task), runaway message loops
must trip the delivery cap, and conflicting construction parameters (or
a latency / fault model on a wall-clock channel) must be rejected
loudly.  Also the codec sharing: a message object framed once, a
payload decoded once while the runtime remembers them, and one live
filter per type and key — and either way the same bytes and messages as
a fresh encode or decode.  And a reader that drops a malformed payload
and reads on.
"""

import gc
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.broker.network import PubSubNetwork
from repro.filters.filter import Filter, MatchAll, MatchNone
from repro.filters.wire import filter_to_wire
from repro.messages.notification import Notification
from repro.messages.wire import (
    FRAME_HEADER_SIZE,
    MAX_FRAME_PAYLOAD,
    WireError,
    decode_message,
    encode_frame,
    encode_message,
)
from repro.runtime import aio
from repro.runtime.aio import AioRuntime
from repro.runtime.factory import make_runtime
from repro.runtime.faults import FaultModel
from repro.runtime.latency import FixedLatency
from repro.runtime.trace import TraceRecorder
from repro.sim.engine import Simulator
from repro.sim.rng import DeterministicRandom
from repro.topology.builders import line_topology
from tests.messages.test_wire import messages, mutated_payloads
from tests.runtime.test_backend_parity import (
    AIO_BACKENDS,
    EXPERIMENTS,
    RecordingFactory,
    _trace_fingerprint,
)


def _exploding_network(error):
    network = PubSubNetwork(line_topology(2), runtime=AioRuntime())
    broker = network.broker("B2")

    def boom(message, from_destination=None):
        raise error

    broker._dispatch = boom
    return network


class TestReaderFailurePropagation:
    def test_processing_crash_surfaces_from_settle(self):
        """One frame in flight: the error must not be swallowed."""
        network = _exploding_network(KeyError("broker exploded"))
        try:
            producer = network.add_client("p", "B1")
            producer.advertise({"t": 1})
            with pytest.raises(KeyError):
                network.settle()
        finally:
            network.close()

    def test_processing_crash_with_backlog_does_not_hang(self):
        """Frames still queued on the dead channel: raise, don't spin."""
        network = _exploding_network(RuntimeError("dead channel"))
        try:
            producer = network.add_client("p", "B1")
            producer.advertise({"t": 1})
            producer.advertise({"t": 2})
            with pytest.raises(RuntimeError):
                network.settle()
        finally:
            network.close()


def test_settle_caps_runaway_message_loops():
    """Two brokers ping-ponging a notification forever must trip the cap."""
    network = PubSubNetwork(line_topology(2), runtime=AioRuntime())
    try:
        left = network.broker("B1")
        right = network.broker("B2")

        def bounce_right(message, channel):
            right.link_to("B1").send(message)

        def bounce_left(message, channel):
            left.link_to("B2").send(message)

        # Rewire the delivery callbacks into an infinite relay.
        network.links[("B1", "B2")]._deliver = bounce_right
        network.links[("B2", "B1")]._deliver = bounce_left
        from repro.messages.notification import Notification

        network.links[("B1", "B2")].send(Notification({"x": 1}, "p", 1))
        with pytest.raises(RuntimeError, match="did not quiesce"):
            network.settle(max_events=500)
    finally:
        network.close()


def test_sim_parameters_conflict_with_explicit_runtime():
    """latency/simulator/trace configure the *default* runtime only;
    passing them alongside an explicit runtime is rejected."""
    runtime = AioRuntime()
    try:
        with pytest.raises(ValueError, match="latency"):
            PubSubNetwork(line_topology(2), latency=0.2, runtime=runtime)
        with pytest.raises(ValueError, match="simulator"):
            PubSubNetwork(line_topology(2), simulator=Simulator(), runtime=runtime)
        with pytest.raises(ValueError, match="trace"):
            PubSubNetwork(line_topology(2), trace=TraceRecorder(), runtime=runtime)
    finally:
        runtime.close()


def test_wall_clock_channels_take_no_latency_or_fault_model():
    """Both need a modelled clock: setting one on the wall clock fails loudly."""
    runtime = AioRuntime()
    try:
        channel = runtime.connect("A", "B", lambda message, channel: None)
        with pytest.raises(AttributeError):
            channel.fault_model = FaultModel(DeterministicRandom(1))
        with pytest.raises(AttributeError):
            channel.latency = FixedLatency(0.1)
    finally:
        runtime.close()


def test_clock_schedules_and_cancels():
    """The aio clock satisfies the Clock protocol: timers fire in
    run_until, cancelled handles do not."""
    network = PubSubNetwork(line_topology(2), runtime=AioRuntime())
    try:
        fired = []
        network.clock.schedule(0.01, fired.append, "a")
        cancelled = network.clock.schedule(0.01, fired.append, "b")
        cancelled.cancel()
        network.run_until(network.clock.now + 0.05)
        assert fired == ["a"]
    finally:
        network.close()


def test_close_is_idempotent():
    runtime = AioRuntime()
    network = PubSubNetwork(line_topology(2), runtime=runtime)
    network.settle()
    network.close()
    network.close()
    runtime.close()


def test_closing_a_tcp_network_closes_both_ends_of_every_connection():
    """No transport is left for the collector to find: with every
    ``ResourceWarning`` recorded, collecting a closed aio-tcp network
    warns about nothing ("unclosed transport" was the accepted end's)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        network = PubSubNetwork(line_topology(3), runtime=make_runtime("aio-tcp"))
        network.add_client("p", "B1").advertise({"t": 1})
        network.settle()
        network.close()
        del network
        gc.collect()
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []


# ---------------------------------------------------------------------------
# Codec sharing: encode once per fan-out, decode once per payload
# ---------------------------------------------------------------------------


def _fresh(message):
    return decode_message(encode_message(message)).to_wire()


@pytest.mark.parametrize("backend", AIO_BACKENDS)
@settings(max_examples=30, deadline=None)
@given(
    pool=st.lists(messages, min_size=1, max_size=5),
    picks=st.lists(st.integers(0, 5), min_size=1, max_size=30),
    seed=st.integers(0, 1000),
)
def test_shared_codec_sends_and_delivers_what_a_fresh_codec_would(backend, pool, picks, seed):
    # An equal but distinct object: the frame is encoded again, the payload
    # is one the runtime already decoded.
    pool = pool + [decode_message(encode_message(pool[0]))]
    sent = [pool[pick % len(pool)] for pick in picks]
    runtime = make_runtime(backend)
    received = []

    def deliver(message, channel):
        assert len(runtime._decoded) <= aio.DECODED_PAYLOADS
        assert len(runtime._framed) <= aio.FRAMED_MESSAGES
        received.append(message)

    try:
        channel = runtime.connect("A", "B", deliver)
        faults = FaultModel(DeterministicRandom(seed), duplicate_probability=0.3)
        duplicated = []
        decide = faults.should_duplicate
        faults.should_duplicate = lambda: duplicated.append(decide()) or duplicated[-1]
        channel.fault_model = faults
        # Small bounds, so repeats both hit and miss.
        with mock.patch.multiple(aio, DECODED_PAYLOADS=3, FRAMED_MESSAGES=3):
            for message in sent:
                channel.send(message)
            runtime.settle()
        for key, (message, frame) in runtime._framed.items():
            assert key == id(message) and frame == encode_frame(message)
    except OSError as error:  # pragma: no cover - sandboxed environments
        pytest.skip("loopback sockets unavailable: {}".format(error))
    finally:
        runtime.close()

    expected = [
        _fresh(message) for message, twice in zip(sent, duplicated) for _ in range(1 + twice)
    ]
    assert [message.to_wire() for message in received] == expected


#: ``encode_frame`` / ``decode_message`` calls over the ten parity
#: experiments, as measured: a frame or payload memo that misses more
#: raises them.
PARITY_ENCODES = 1662
PARITY_DECODES = 1106


@pytest.mark.parametrize("backend", AIO_BACKENDS)
def test_parity_experiments_encode_and_decode_once_per_message(backend):
    """Codec calls stay pinned."""
    encode = mock.Mock(wraps=aio.encode_frame)
    decode = mock.Mock(wraps=aio.decode_message)
    try:
        with mock.patch.multiple(aio, encode_frame=encode, decode_message=decode):
            for name in sorted(EXPERIMENTS):
                EXPERIMENTS[name](RecordingFactory(backend))
    except OSError as error:  # pragma: no cover - sandboxed environments
        pytest.skip("loopback sockets unavailable: {}".format(error))
    assert 0 < encode.call_count <= PARITY_ENCODES
    assert 0 < decode.call_count <= PARITY_DECODES


@pytest.mark.parametrize("backend", AIO_BACKENDS)
def test_decoded_payloads_are_bounded_oldest_out_first(backend):
    runtime = make_runtime(backend)
    try:
        payloads = [
            encode_message(Notification({"n": n}, "p", n + 1))
            for n in range(3 * aio.DECODED_PAYLOADS)
        ]
        first = runtime._decode(payloads[0])
        assert runtime._decode(payloads[0]) is first
        for payload in payloads[1:]:
            runtime._decode(payload)
            assert len(runtime._decoded) <= aio.DECODED_PAYLOADS
        assert list(runtime._decoded) == payloads[-aio.DECODED_PAYLOADS :]
        # Forgotten, so decoded afresh: equal, not the same object.
        again = runtime._decode(payloads[0])
        assert again is not first and again == first
    finally:
        runtime.close()


def _frame_of(payload):
    """A well-formed frame around any payload bytes."""
    return len(payload).to_bytes(FRAME_HEADER_SIZE, "big") + payload


@pytest.mark.parametrize("backend", AIO_BACKENDS)
def test_a_payload_that_raised_raises_again(backend):
    runtime = make_runtime(backend)
    received = []
    try:
        runtime.connect("A", "B", lambda message, channel: received.append(message))
        for _ in range(2):
            with pytest.raises(WireError):
                runtime._decode(b"[1,2]")
        assert runtime._decoded == {}
        # On a channel, the reader counts each bad frame once, drops it and
        # delivers the next good one; ``settle`` returns.
        (transport,) = runtime._channels
        good = Notification({"n": 1}, "p", 1)
        transport._feed(_frame_of(b"[1,2]"))
        transport._feed(_frame_of(b"[1,2]"))
        transport._feed(encode_frame(good))
        runtime.settle()
        assert (transport.malformed_count, transport.dropped_count) == (2, 2)
        assert [message.to_wire() for message in received] == [_fresh(good)]
        assert list(runtime._decoded) == [encode_message(good)]
        # A bad header leaves the stream out of step: that reader ends, and
        # ``settle`` says so.
        transport._feed((MAX_FRAME_PAYLOAD + 1).to_bytes(FRAME_HEADER_SIZE, "big"))
        with pytest.raises(WireError, match="over the cap"):
            runtime.settle()
    except OSError as error:  # pragma: no cover - sandboxed environments
        pytest.skip("loopback sockets unavailable: {}".format(error))
    finally:
        runtime.close()


@st.composite
def _bad_payloads(draw):
    """Truncated, garbage or wrong-shape payload bytes."""
    kind = draw(st.sampled_from(["truncated", "garbage", "wrong shape"]))
    if kind == "truncated":
        payload = encode_message(draw(messages))
        return payload[: draw(st.integers(0, len(payload) - 1))]
    if kind == "garbage":
        return draw(st.binary(max_size=64))
    return draw(mutated_payloads())


@pytest.mark.parametrize("backend", AIO_BACKENDS)
@settings(max_examples=25, deadline=None)
@given(first=messages, bad=st.lists(_bad_payloads(), min_size=1, max_size=4), last=messages)
def test_reader_drops_malformed_payloads_and_keeps_reading(backend, first, bad, last):
    payloads = [encode_message(first), *bad, encode_message(last)]
    expected, malformed = [], 0
    for payload in payloads:
        try:
            expected.append(decode_message(payload).to_wire())
        except WireError:
            malformed += 1
    runtime = make_runtime(backend)
    received = []
    try:
        runtime.connect("A", "B", lambda message, channel: received.append(message))
        (transport,) = runtime._channels
        for payload in payloads:
            transport._feed(_frame_of(payload))
        runtime.settle()
    except OSError as error:  # pragma: no cover - sandboxed environments
        pytest.skip("loopback sockets unavailable: {}".format(error))
    finally:
        runtime.close()
    assert transport.malformed_count == transport.dropped_count == malformed
    assert [message.to_wire() for message in received] == expected


#: Filters the sharing property draws from: ``MatchAll`` and ``Filter()``
#: share a key, ``MatchNone`` has its own.
SHARING_FILTERS = (
    MatchAll(),
    Filter(),
    MatchNone(),
    Filter({"topic": "news"}),
    Filter({"topic": "news", "n": ("<", 3)}),
)

sharing_steps = st.lists(
    st.tuples(
        st.sampled_from(["subscribe", "unsubscribe", "advertise", "unadvertise"]),
        st.integers(0, 2),
        st.integers(0, len(SHARING_FILTERS) - 1),
    ),
    max_size=12,
)


def _assert_shared_like_fresh(delivered):
    """Each decoded filter is what a fresh decode gives, one object per type and key."""
    shared = {}
    for payload, message in delivered:
        filter_ = getattr(message, "filter", None)
        if filter_ is None:
            continue
        fresh = decode_message(payload).filter
        assert type(filter_) is type(fresh) and filter_.key() == fresh.key()
        assert filter_to_wire(filter_) == filter_to_wire(fresh)
        # ``delivered`` keeps every one alive, so an equal one must be this one.
        assert shared.setdefault((type(filter_), filter_.key()), filter_) is filter_


@pytest.mark.parametrize("backend", AIO_BACKENDS)
@settings(max_examples=20, deadline=None)
@given(steps=sharing_steps)
def test_decoded_filters_are_shared_per_type_and_key(backend, steps):
    runtime = make_runtime(backend)
    network = PubSubNetwork(line_topology(3), runtime=runtime)
    delivered = []
    decode = runtime._decode

    def recording_decode(payload):
        message = decode(payload)
        delivered.append((payload, message))
        return message

    runtime._decode = recording_decode
    try:
        clients = [network.add_client("C{}".format(i), "B{}".format(i + 1)) for i in range(3)]
        held = [{"subscribe": [], "advertise": []} for _ in clients]
        for action, index, pick in steps:
            client, ids = clients[index], held[index][action.replace("un", "", 1)]
            if not action.startswith("un"):
                ids.append(getattr(client, action)(SHARING_FILTERS[pick]))
            elif ids:
                getattr(client, action)(ids.pop(pick % len(ids)))
            network.settle()
        for client, ids in zip(clients, held):
            for subscription_id in ids["subscribe"]:
                client.unsubscribe(subscription_id)
            for advertisement_id in ids["advertise"]:
                client.unadvertise(advertisement_id)
        network.settle()
    except OSError as error:  # pragma: no cover - sandboxed environments
        pytest.skip("loopback sockets unavailable: {}".format(error))
    finally:
        network.close()

    _assert_shared_like_fresh(delivered)
    # The trace and the codec memos keep recent messages by design; without
    # them nothing (rows, forwarding states, plans, caches) keeps a filter.
    delivered.clear()
    network.trace.clear()
    runtime._decoded.clear()
    runtime._framed.clear()
    gc.collect()
    assert len(runtime._filters) == 0, list(runtime._filters)


def _faulty_run(network):
    producer = network.add_client("P", "B4")
    producer.advertise({"topic": "news"})
    for i in (1, 2):
        network.add_client("C{}".format(i), "B{}".format(i)).subscribe({"topic": "news"})
    network.settle()
    faults = FaultModel(DeterministicRandom(7), drop_probability=0.1, duplicate_probability=0.3)
    for link in network.links.values():
        link.fault_model = faults
    for index in range(40):
        producer.publish({"topic": "news", "index": index})
        if index % 4 == 3:
            network.settle()
    network.settle()
    return _trace_fingerprint(network.trace)


@pytest.mark.parametrize("backend", AIO_BACKENDS)
def test_iid_faults_leave_virtual_time_parity_intact(backend):
    """Duplicated frames reuse a decoded object; drops and duplicates still
    land exactly where the simulator puts them, timestamps included."""
    expected = _faulty_run(PubSubNetwork(line_topology(4), strategy="covering"))
    network = PubSubNetwork(line_topology(4), strategy="covering", runtime=make_runtime(backend))
    try:
        assert _faulty_run(network) == expected
    except OSError as error:  # pragma: no cover - sandboxed environments
        pytest.skip("loopback sockets unavailable: {}".format(error))
    finally:
        network.close()
    assert expected["drops"] and len(expected["deliveries"]) > 40
