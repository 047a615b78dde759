"""AioRuntime behaviour tests (beyond backend parity).

Covers the failure paths the parity scenarios never hit: broker crashes
inside message processing must surface from ``settle`` (not hang the
quiescence loop or vanish with the reader task), runaway message loops
must trip the delivery cap, and conflicting construction parameters (or
a latency / fault model on a wall-clock channel) must be rejected
loudly.  Also the codec sharing: a message object framed once and a
payload decoded once while the runtime remembers them — and either way
the same bytes and messages as a fresh encode or decode.
"""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.broker.base import Broker
from repro.broker.network import PubSubNetwork
from repro.messages.notification import Notification
from repro.messages.wire import WireError, decode_message, encode_frame, encode_message
from repro.runtime import aio
from repro.runtime.aio import AioRuntime
from repro.runtime.factory import make_runtime
from repro.runtime.faults import FaultModel
from repro.runtime.latency import FixedLatency
from repro.runtime.trace import TraceRecorder
from repro.sim.engine import Simulator
from repro.sim.rng import DeterministicRandom
from repro.topology.builders import line_topology
from tests.messages.test_wire import messages
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
    """Codec calls stay pinned, and no flush ever skips the codec.

    ``Broker.receive_batch`` is the simulator link's hook for a run of
    messages delivered together; on the asyncio backend every message
    must cross the codec on its own.
    """
    encode = mock.Mock(wraps=aio.encode_frame)
    decode = mock.Mock(wraps=aio.decode_message)
    receive_batch = mock.Mock(side_effect=AssertionError("receive_batch on an aio backend"))
    try:
        with mock.patch.multiple(aio, encode_frame=encode, decode_message=decode):
            with mock.patch.object(Broker, "receive_batch", receive_batch):
                for name in sorted(EXPERIMENTS):
                    EXPERIMENTS[name](RecordingFactory(backend))
    except OSError as error:  # pragma: no cover - sandboxed environments
        pytest.skip("loopback sockets unavailable: {}".format(error))
    assert 0 < encode.call_count <= PARITY_ENCODES
    assert 0 < decode.call_count <= PARITY_DECODES
    assert receive_batch.call_count == 0


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
        # On a channel, the reader that read it fails and ``settle`` says so.
        (transport,) = runtime._channels
        transport._feed(len(b"[1,2]").to_bytes(4, "big") + b"[1,2]")
        with pytest.raises(WireError):
            runtime.settle()
        assert received == [] and runtime._decoded == {}
    except OSError as error:  # pragma: no cover - sandboxed environments
        pytest.skip("loopback sockets unavailable: {}".format(error))
    finally:
        runtime.close()


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
