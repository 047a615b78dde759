"""Asyncio runtime backend: real event loop, framed byte streams.

The second implementation of the runtime seam proves that the broker
core is transport-agnostic: the very same :class:`~repro.broker.base.Broker`
objects that run under the discrete-event simulator run here on an
asyncio event loop, with every message serialised through the wire codec
(:mod:`repro.messages.wire`) into length-prefixed frames on a FIFO byte
stream — the paper's "point-to-point, FIFO order communication links,
e.g., TCP connections" (Section 2.1), for real.

Two transports:

* ``memory`` (default) — an in-process duplex byte pipe per direction.
  Messages are still *fully* encoded to bytes and decoded on arrival, so
  the codec is exercised end to end, but no sockets are involved and
  delivery scheduling is deterministic.
* ``tcp`` — one real TCP connection per directed channel over loopback,
  using ``asyncio.start_server`` / ``open_connection``.

Codec sharing: a broker forwards one message object to each neighbour
in turn, so the runtime frames each message object once (a bounded FIFO
map keyed by identity, holding the messages it framed), and it decodes
each distinct payload once (a bounded FIFO map from payload bytes to
message).  Equal payloads are equal messages — the JSON is canonical and
the message id crosses the wire — and no message changes after it was
sent, so every hop after the first shares one decoded object, as every
hop on the simulator shares the sender's.  Filters are shared too: a
decoded message that carries one (the four admin messages,
``MovedSubscribe``, ``FetchRequest``) takes the runtime's live ``Filter``
of the same type and key, from a weak-value map that pins nothing, and
its decoded copy is dropped before any broker sees it.  Every routing
row, forwarding state, dispatch-plan key and wire memo in the process
then refers to one object per distinct filter.  The type is part of the
key because ``MatchAll`` and ``Filter()`` share one.

Execution model: client operations (subscribe, publish, move_to, ...)
are plain synchronous calls made while the loop is parked; they enqueue
frames on the channels.  :meth:`AioRuntime.settle` then spins the loop
until the network is quiescent (no frame in flight anywhere), mirroring
the simulator's ``drain``.  An in-flight counter is incremented when a
frame enters the transport and decremented after the receiving broker
finished processing the message — including any frames that processing
sent, so quiescence means the whole causal cascade has completed.

Two clock modes:

* **wall clock** (default) — the loop's monotonic clock, rebased to
  zero at runtime creation; channels send immediately.  ``settle`` does
  not wait for *timers* (real time cannot be fast-forwarded); use
  :meth:`AioRuntime.run_until` to let scheduled callbacks fire after
  genuinely sleeping.
* **virtual time** (``virtual_time=True``) — the clock *is* a
  :class:`~repro.sim.engine.Simulator`, and the channels are the
  simulator's own :class:`~repro.sim.network.Link` s on it, each
  delivering into an :class:`AioChannel` that frames the message onto
  its pipe (or socket).  ``settle`` alternates *draining* the network to
  frame quiescence with *stepping* the simulator to its next scheduled
  call, until both are quiescent — the simulator's ``drain`` semantics,
  so delivery *timestamps*, not just delivery orders, line up with the
  simulator run for run — the property the backend-parity suite pins.
"""

from __future__ import annotations

import asyncio
import functools
from typing import Any, Callable, Dict, List, Optional, Tuple
from weakref import WeakValueDictionary

from repro.filters.filter import Filter
from repro.messages.base import Message
from repro.messages.wire import (
    FRAME_HEADER_SIZE,
    WireError,
    decode_frame_payload,
    decode_message,
    encode_frame,
)
from repro.runtime.latency import DEFAULT_LINK_LATENCY, LatencySpec, resolve_latency
from repro.runtime.trace import TraceRecorder

#: How many distinct payloads a runtime keeps decoded (oldest out first).
#: A paced load repeats a payload within a few frames; a burst wider than
#: this decodes again at every hop, as it would without the map.
DECODED_PAYLOADS = 64

#: How many sent message objects a runtime keeps framed (oldest out
#: first).  Under virtual time a fan-out's frames are built at flush time,
#: when other links' flushes may have framed other messages in between.
FRAMED_MESSAGES = 64


class _WallTimer:
    """A cancellable handle for a wall-clock loop timer.

    Wraps :class:`asyncio.TimerHandle` behind the
    :class:`~repro.runtime.protocols.ScheduledCall` surface (idempotent
    ``cancel()`` plus a ``cancelled`` attribute), so scenario code sees
    the same handle shape on every backend.
    """

    __slots__ = ("_handle", "cancelled", "label")

    def __init__(self, handle: asyncio.TimerHandle, label: str = "") -> None:
        self._handle = handle
        self.cancelled = False
        self.label = label

    def cancel(self) -> None:
        """Prevent the scheduled callback from running (idempotent)."""
        if self.cancelled:
            return
        self.cancelled = True
        self._handle.cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return "_WallTimer({}, {})".format(self.label or self._handle, state)


class AioClock:
    """The event loop's monotonic clock, rebased to zero."""

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop
        self._start = loop.time()

    @property
    def now(self) -> float:
        """Seconds since the runtime was created."""
        return self._loop.time() - self._start

    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        label: str = "",
        **kwargs: Any,
    ) -> _WallTimer:
        """Run ``callback`` *delay* seconds from now (loop timer)."""
        if delay < 0:
            raise ValueError("cannot schedule {!r} in the past (delay={})".format(
                label or callback, delay
            ))
        if kwargs:
            callback = functools.partial(callback, **kwargs)
        return _WallTimer(self._loop.call_later(delay, callback, *args), label=label)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        label: str = "",
        **kwargs: Any,
    ) -> _WallTimer:
        """Run ``callback`` at absolute runtime time *time*."""
        if time < self.now:
            raise ValueError(
                "cannot schedule {!r} in the past (time={} < now={})".format(
                    label or callback, time, self.now
                )
            )
        if kwargs:
            callback = functools.partial(callback, **kwargs)
        return _WallTimer(self._loop.call_at(self._start + time, callback, *args), label=label)


class _BytePipe:
    """A minimal in-process FIFO byte stream (single reader)."""

    __slots__ = ("_buffer", "_waiter")

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._waiter: Optional[asyncio.Future] = None

    def feed(self, data: bytes) -> None:
        """Append bytes; wake the blocked reader, if any."""
        self._buffer.extend(data)
        waiter, self._waiter = self._waiter, None
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    async def readexactly(self, count: int) -> bytes:
        """Return exactly *count* bytes, waiting for them to arrive."""
        while len(self._buffer) < count:
            self._waiter = asyncio.get_event_loop().create_future()
            await self._waiter
        data = bytes(self._buffer[:count])
        del self._buffer[:count]
        return data

    def __len__(self) -> int:
        return len(self._buffer)


class AioChannel:
    """A unidirectional FIFO byte stream carrying wire frames.

    The transport: :meth:`carry` frames a message and feeds the bytes to
    the in-memory pipe or the TCP socket; a reader task reassembles
    frames, decodes the message and invokes the delivery callback.
    Per-channel FIFO order follows from the byte stream.

    On the wall clock the runtime hands out the channel itself, and
    :meth:`send` carries at once.  Under virtual time it hands out a
    :class:`~repro.sim.network.Link` whose delivery callback is
    :meth:`carry`.  The slots leave no room for a latency or fault
    model: those need a modelled clock.
    """

    __slots__ = (
        "runtime",
        "source",
        "target",
        "_deliver",
        "sent_count",
        "delivered_count",
        "dropped_count",
        "malformed_count",
        "torn",
        "_started",
        "depth_probe",
        "_pipe",
        "_backlog",
        "_server",
        "_writer",
        "_server_writer",
        "_read_task",
    )

    def __init__(
        self,
        runtime: "AioRuntime",
        source: str,
        target: str,
        deliver: Callable[[Message, "AioChannel"], None],
    ) -> None:
        self.runtime = runtime
        self.source = source
        self.target = target
        self._deliver = deliver
        self.sent_count = 0
        self.delivered_count = 0
        self.dropped_count = 0
        #: Frames whose payload did not decode (also counted as dropped).
        self.malformed_count = 0
        #: When ``True`` (the *target* broker crashed, see
        #: :meth:`AioRuntime.teardown_broker`) the transport is torn down
        #: and messages reaching it are dropped, as the simulator's
        #: crashed broker drops them on receipt.
        self.torn = False
        self._started = False
        # Telemetry hook: called with the channel's in-flight depth after
        # each send.  Wired by the network only when telemetry is
        # enabled, so the off path costs one ``is not None`` check.
        self.depth_probe: Optional[Callable[[int], None]] = None
        # Memory transport state.
        self._pipe = _BytePipe()
        # TCP transport state.
        self._backlog: List[bytes] = []
        self._server: Optional[asyncio.AbstractServer] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        # The accepted end's writer: unused, but it owns that end's transport.
        self._server_writer: Optional[asyncio.StreamWriter] = None
        self._read_task: Optional[asyncio.Task] = None

    # ------------------------------------------------------------------
    # Sending (synchronous; callable while the loop is parked)
    # ------------------------------------------------------------------
    def send(self, message: Message) -> None:
        """Wall clock: record the traversal and carry *message* at once."""
        self.sent_count += 1
        if self.depth_probe is not None:
            self.depth_probe(self.sent_count - self.delivered_count - self.dropped_count)
        runtime = self.runtime
        runtime.trace.record_link(runtime.clock.now, self.source, self.target, message)
        self.carry(message)

    def carry(self, message: Message, link: Any = None) -> None:
        """Put *message* on the transport, or drop it if the channel is torn.

        Under virtual time the channel's :class:`~repro.sim.network.Link`
        calls this (passing itself as *link*) when the message is due.
        """
        if self.torn:
            # The receiving broker is down and its transport gone: the
            # message dies here, before the in-flight counter ever
            # increments (so `settle` still terminates).
            self.dropped_count += 1
            runtime = self.runtime
            runtime.trace.record_drop(
                runtime.clock.now, self.source, self.target, message, "broker-down"
            )
            return
        self._feed(self.runtime._frame(message))

    def _feed(self, frame: bytes) -> None:
        """Hand an encoded frame to the transport (it is now in flight)."""
        runtime = self.runtime
        runtime._in_flight += 1
        if runtime.transport == "memory":
            self._pipe.feed(frame)
        elif self._writer is not None:
            self._writer.write(frame)
        else:
            # The TCP connection is established lazily on the first
            # settle; frames sent before that wait in the backlog.
            self._backlog.append(frame)

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    async def _start(self) -> None:
        if self._started:
            return
        self._started = True
        if self.runtime.transport == "memory":
            self._read_task = asyncio.get_event_loop().create_task(
                self._read_loop(self._pipe)
            )
            return
        # TCP: one loopback connection per directed channel.  The server
        # side is the receiving end; the connecting side writes frames.
        accepted: asyncio.Future = asyncio.get_event_loop().create_future()

        def on_accept(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
            if not accepted.done():
                accepted.set_result((reader, writer))

        self._server = await asyncio.start_server(on_accept, self.runtime.host, 0)
        port = self._server.sockets[0].getsockname()[1]
        _, self._writer = await asyncio.open_connection(self.runtime.host, port)
        reader, self._server_writer = await accepted
        self._read_task = asyncio.get_event_loop().create_task(self._read_loop(reader))
        for frame in self._backlog:
            self._writer.write(frame)
        self._backlog.clear()

    async def _read_loop(self, stream: Any) -> None:
        """Reassemble frames, decode and deliver — the receive half.

        A payload that does not decode is counted and dropped, and the
        reader goes on with the next frame: the header said where that
        one starts.  A bad header leaves no such place, so it ends the
        reader and surfaces from ``settle``.
        """
        runtime = self.runtime
        while True:
            header = await stream.readexactly(FRAME_HEADER_SIZE)
            length = decode_frame_payload(header)
            payload = await stream.readexactly(length)
            try:
                message = runtime._decode(payload)
            except WireError:
                self.malformed_count += 1
                self.dropped_count += 1
                runtime._message_done()
                continue
            self.delivered_count += 1
            try:
                self._deliver(message, self)
            finally:
                runtime._message_done()
            # Yield between messages so channels drain round-robin
            # rather than one channel starving the others.
            await asyncio.sleep(0)

    async def _tear_down(self) -> None:
        """Crash teardown: kill the transport, future frames drop on arrival.

        The read task, writer and server are closed and the memory pipe
        replaced, so nothing half-read survives; ``_started`` resets so a
        later :meth:`AioRuntime.restore_broker` re-establishes the
        transport (fresh pipe, or a brand-new TCP connection) on the next
        settle.  Under virtual time the channel's link — latency, FIFO
        clamp, pending messages — is untouched: link timing, as on the
        simulator, is a property of the wire, not of the endpoint's
        lifecycle.
        """
        self.torn = True
        await self._close()
        self._started = False
        self._pipe = _BytePipe()
        self._backlog = []

    async def _close(self) -> None:
        if self._read_task is not None:
            self._read_task.cancel()
            try:
                await self._read_task
            except (asyncio.CancelledError, Exception):
                pass
            self._read_task = None
        for writer in (self._writer, self._server_writer):
            if writer is not None:
                writer.close()
                try:
                    await writer.wait_closed()
                except Exception:
                    pass
        self._writer = self._server_writer = None
        if self._server is not None:
            self._server.close()
            try:
                await self._server.wait_closed()
            except Exception:
                pass
            self._server = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "AioChannel({}->{})".format(self.source, self.target)


class AioRuntime:
    """Runtime backend executing brokers on an asyncio event loop.

    With ``virtual_time=True`` the runtime's clock is a
    :class:`~repro.sim.engine.Simulator` and ``settle``/``run_until``
    gain its semantics: the drive loop alternates between draining
    in-flight frames and stepping the simulator one scheduled call at a
    time, until both the network and the event queue are quiescent (or,
    for ``run_until``, until the next call lies beyond the horizon, whose
    time the clock then takes).  *latency* (same spec as the sim backend:
    constant, per-edge mapping, or factory) is the latency model of its
    links; it requires virtual time — a wall-clock backend measures
    latency, it cannot model it.
    """

    def __init__(
        self,
        transport: str = "memory",
        host: str = "127.0.0.1",
        trace: Optional[TraceRecorder] = None,
        virtual_time: bool = False,
        latency: Optional[LatencySpec] = None,
    ) -> None:
        if transport not in ("memory", "tcp"):
            raise ValueError("transport must be 'memory' or 'tcp', got {!r}".format(transport))
        if latency is not None and not virtual_time:
            raise ValueError(
                "a latency model requires virtual_time=True; "
                "the wall-clock backend cannot fast-forward modelled delays"
            )
        self.transport = transport
        self.host = host
        self.virtual_time = virtual_time
        self.loop = asyncio.new_event_loop()
        self._latency_spec = latency if latency is not None else DEFAULT_LINK_LATENCY
        if virtual_time:
            from repro.sim.engine import Simulator

            self._clock: Any = Simulator()
        else:
            self._clock = AioClock(self.loop)
        self._trace = trace if trace is not None else TraceRecorder()
        self._channels: List[AioChannel] = []
        self._in_flight = 0
        self._closed = False
        # Set by an active drain so `_message_done` can wake it exactly
        # when the network goes quiescent (or the delivery cap trips).
        self._idle_event: Optional[asyncio.Event] = None
        self._drain_delivered = 0
        self._drain_cap: Optional[int] = None
        # Codec sharing (see the module docstring).
        self._framed: Dict[int, Tuple[Message, bytes]] = {}
        self._decoded: Dict[bytes, Message] = {}
        self._filters: "WeakValueDictionary[Tuple[type, Any], Filter]" = WeakValueDictionary()

    # ------------------------------------------------------------------
    # Runtime protocol
    # ------------------------------------------------------------------
    @property
    def clock(self) -> Any:
        return self._clock

    @property
    def trace(self) -> TraceRecorder:
        return self._trace

    def connect(
        self, source: str, target: str, deliver: Callable[[Message, AioChannel], None]
    ) -> Any:
        """The FIFO channel from *source* to *target*.

        Wall clock: the :class:`AioChannel` itself.  Virtual time: a
        :class:`~repro.sim.network.Link` on the runtime's simulator, whose
        deliveries the channel carries.
        """
        channel = AioChannel(self, source, target, deliver)
        self._channels.append(channel)
        if not self.virtual_time:
            return channel
        from repro.sim.network import Link

        latency = resolve_latency(self._latency_spec, source, target)
        return Link(self._clock, source, target, channel.carry, latency, trace=self._trace)

    def teardown_broker(self, name: str) -> int:
        """Crash teardown: tear the channels *into* broker *name*.

        The dead broker's reading ends are closed, and every message that
        reaches them — including messages already on the wire when the
        crash happened — is dropped with reason ``"broker-down"``: the
        trace records the simulator's crashed broker writes on receipt.
        Channels *out* of the dead broker stay up: messages it sent before
        dying deliver normally, exactly as on the simulator.  Returns the
        number of channels torn.
        """
        torn = 0
        for channel in self._channels:
            if channel.target == name and not channel.torn:
                if not self.loop.is_closed():
                    self.loop.run_until_complete(channel._tear_down())
                else:
                    channel.torn = True
                torn += 1
        return torn

    def restore_broker(self, name: str) -> int:
        """Restart's inverse of :meth:`teardown_broker`.

        Re-establishes the torn channels into *name* (lazily: the
        transport reconnects on the next settle, like the initial lazy
        connection).  Returns the number of channels restored.
        """
        restored = 0
        for channel in self._channels:
            if channel.target == name and channel.torn:
                channel.torn = False
                restored += 1
        return restored

    def settle(self, max_events: int = 1_000_000) -> int:
        """Run until no work remains.

        Wall clock: spin the loop until no frame is in flight anywhere.
        Virtual time: additionally jump the clock through every scheduled
        call (timers may enqueue frames and frames may schedule timers;
        the loop runs until *both* queues are quiescent).  Returns the
        number of messages delivered during this call; the *max_events*
        cap mirrors the simulator's drain limit and guards against
        ping-pong message loops.
        """
        if self.virtual_time:
            return self.loop.run_until_complete(self._virtual_drive(None, max_events))
        return self.loop.run_until_complete(self._settle_wall(max_events))

    def run_until(self, time: float) -> int:
        """Advance execution (messages *and* timers) until *time*.

        Virtual time: process every scheduled call with ``call.time <=
        time`` — including calls those calls schedule — drain the frames
        they produced, then set the clock to *time* (the simulator's
        ``run_until``, which also rejects a *time* in the past).  Wall
        clock: genuinely sleep the loop.
        """
        if self.virtual_time:
            return self.loop.run_until_complete(self._virtual_drive(time, 1_000_000))
        delay = time - self._clock.now
        if delay > 0:
            self.loop.run_until_complete(self._run_for(delay))
        return 0

    def close(self) -> None:
        """Cancel reader tasks, close transports, close the loop."""
        if self._closed:
            return
        self._closed = True
        if not self.loop.is_closed():
            self.loop.run_until_complete(self._close_channels())
            self.loop.close()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _frame(self, message: Message) -> bytes:
        """``encode_frame(message)``, one frame per remembered message object.

        The map holds the messages it framed, so no remembered id can be
        reused by another object.
        """
        framed = self._framed
        entry = framed.get(id(message))
        if entry is None:
            entry = (message, encode_frame(message))
            if len(framed) >= FRAMED_MESSAGES:
                del framed[next(iter(framed))]
            framed[id(message)] = entry
        return entry[1]

    def _decode(self, payload: bytes) -> Message:
        """``decode_message(payload)``, one shared object per remembered payload.

        A decoded message's filter is the runtime's live one with the same
        type and key.  A payload that raises is not remembered, so it
        raises again.
        """
        decoded = self._decoded
        message = decoded.get(payload)
        if message is None:
            message = decode_message(payload)
            filter_ = getattr(message, "filter", None)
            if filter_ is not None:
                key = (type(filter_), filter_.key())
                message.filter = self._filters.setdefault(key, filter_)
            if len(decoded) >= DECODED_PAYLOADS:
                del decoded[next(iter(decoded))]
            decoded[payload] = message
        return message

    def _message_done(self) -> None:
        self._in_flight -= 1
        if self._idle_event is None:
            return
        self._drain_delivered += 1
        if self._in_flight == 0 or (
            self._drain_cap is not None and self._drain_delivered > self._drain_cap
        ):
            self._idle_event.set()

    async def _start_channels(self) -> None:
        for channel in self._channels:
            if channel.torn:
                # A torn channel has no live endpoint to connect to; it
                # re-establishes on the first settle after restore_broker.
                continue
            await channel._start()

    def _raise_reader_failure(self) -> None:
        """Re-raise the first reader-task crash, so it never hides.

        A reader task only ever completes by being cancelled or by an
        exception escaping message processing; swallowing the latter
        would leave ``settle`` either hanging (frames still in flight on
        the dead channel) or silently dropping the error.
        """
        for channel in self._channels:
            task = channel._read_task
            if task is not None and task.done() and not task.cancelled():
                error = task.exception()
                if error is not None:
                    raise error

    async def _settle_wall(self, max_events: int) -> int:
        await self._start_channels()
        return await self._drain(max_events)

    async def _virtual_drive(self, until: Optional[float], max_events: int) -> int:
        """The virtual-time drive loop: drain frames, step the simulator.

        Scheduled calls execute strictly in (time, insertion order) —
        the simulator's event ordering — and the network is drained to
        quiescence after every single call, so a call's entire causal
        cascade (frames it feeds, messages those deliveries send) is
        either completed or latency-scheduled on the queue before the
        next call runs.  With ``until=None`` the loop runs until both
        queues are empty (settle); otherwise calls beyond *until* stay
        scheduled and the clock finishes exactly at *until*.
        """
        await self._start_channels()
        clock = self._clock
        delivered = 0
        while True:
            delivered += await self._drain(max_events - delivered)
            if not clock.step(until):
                break
        if until is not None:
            clock.run_until(until)
        return delivered

    async def _drain(self, max_events: int) -> int:
        self._drain_delivered = 0
        self._drain_cap = max_events
        try:
            while self._in_flight > 0:
                self._raise_reader_failure()
                if self._drain_delivered > max_events:
                    raise RuntimeError(
                        "aio network did not quiesce within {} messages".format(max_events)
                    )
                # Sleep until quiescence (or the cap) — `_message_done`
                # sets the event — but also wake if a reader task dies,
                # so a crashed channel surfaces instead of deadlocking.
                event = self._idle_event = asyncio.Event()
                if self._in_flight == 0:
                    break
                waiter = asyncio.ensure_future(event.wait())
                readers = [
                    channel._read_task
                    for channel in self._channels
                    if channel._read_task is not None and not channel._read_task.done()
                ]
                try:
                    await asyncio.wait([waiter, *readers], return_when=asyncio.FIRST_COMPLETED)
                finally:
                    if not waiter.done():
                        waiter.cancel()
            self._raise_reader_failure()
        finally:
            self._idle_event = None
            self._drain_cap = None
        return self._drain_delivered

    async def _run_for(self, seconds: float) -> None:
        await self._start_channels()
        await asyncio.sleep(seconds)
        self._raise_reader_failure()

    async def _close_channels(self) -> None:
        for channel in self._channels:
            await channel._close()

    def __enter__(self) -> "AioRuntime":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "AioRuntime(transport={}, channels={}, t={:.3f}{})".format(
            self.transport,
            len(self._channels),
            self._clock.now,
            ", virtual" if self.virtual_time else "",
        )
