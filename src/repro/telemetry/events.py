"""Typed telemetry event records, framed like link messages but decoded apart.

Three event families stream out of an instrumented run:

* :class:`MetricSnapshotEvent` — one broker registry's counters, gauges
  and histograms at a point in time.  A collector keeps the *latest*
  snapshot per broker, so its aggregate always equals the end-of-run
  counters once the final snapshot (emitted at ``network.close()``)
  arrives.
* :class:`SpanEvent` — one hop of a notification's journey, keyed by the
  trace id that rides broker→broker forwards.  The trace id is the
  notification's global identity ``publisher#publisher_seq`` — it is
  already on the wire in every forwarded copy, so causal tracing needs
  **no** message mutation (and telemetry-off runs stay byte-identical).
* :class:`LogEvent` — a timestamped, levelled text record (crash,
  restart, failure detection ...).

Events subclass :class:`~repro.messages.base.Message`, so the wire
codec (:mod:`repro.messages.wire`) frames them like any message, but no
broker link decodes one: the collector decodes them through a table of
their own (:func:`decode_event`).  Their ids come from
a :class:`~repro.messages.base.MessageIds` of the network's telemetry,
apart from the one its brokers stamp messages from: emitting events
never shifts a message id, so enabling telemetry leaves the ids (and
with them the traces) of the actual run as they were.

All timestamps are ``clock.now()`` readings — virtual-time safe and
therefore identical across the ``sim``, ``aio-memory`` and ``aio-tcp``
backends.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.messages.base import Message, MessageKind
from repro.messages.wire import build_registry, message_from_payload, parse_payload

#: Span hop kinds, in causal order within one broker.
HOP_DISPATCH = "dispatch"  #: a broker dequeued + matched the notification
HOP_FORWARD = "forward"  #: the broker enqueued it toward a neighbour
HOP_DELIVER = "deliver"  #: the broker handed it to a local client


def trace_id_of(notification: Any) -> str:
    """The trace id riding a notification: ``publisher#publisher_seq``."""
    return "{}#{}".format(notification.publisher, notification.publisher_seq)


class TelemetryEvent(Message):
    """Base class of all telemetry records (kind ``TELEMETRY``)."""

    kind = MessageKind.TELEMETRY

    __slots__ = ()


class MetricSnapshotEvent(TelemetryEvent):
    """One broker's full registry state at time *time*."""

    wire_fields = ("broker", "time", "counters", "gauges", "histograms")

    __slots__ = ("broker", "time", "counters", "gauges", "histograms")

    def __init__(
        self,
        broker: str,
        time: float,
        counters: Dict[str, int],
        gauges: Optional[Dict[str, Any]] = None,
        histograms: Optional[Dict[str, Any]] = None,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(meta)
        self.broker = broker
        self.time = float(time)
        self.counters: Dict[str, int] = dict(counters)
        self.gauges: Dict[str, Any] = dict(gauges) if gauges else {}
        self.histograms: Dict[str, Any] = dict(histograms) if histograms else {}

    def describe(self) -> str:
        return "MetricSnapshot({}@{:.3f}, {} counters)".format(
            self.broker, self.time, len(self.counters)
        )


class SpanEvent(TelemetryEvent):
    """One hop of one notification's journey (see module docstring).

    ``hop`` is one of :data:`HOP_DISPATCH` / :data:`HOP_FORWARD` /
    :data:`HOP_DELIVER`; ``peer`` names the other party of the hop (the
    upstream broker or publishing client for a dispatch, the neighbour
    for a forward, the client for a delivery).  ``attrs`` carries
    JSON-friendly extras (matched-row counts, delivery sequence ...).
    """

    wire_fields = ("trace_id", "broker", "hop", "time", "peer", "attrs")

    __slots__ = ("trace_id", "broker", "hop", "peer", "time", "attrs")

    def __init__(
        self,
        trace_id: str,
        broker: str,
        hop: str,
        time: float,
        peer: Optional[str] = None,
        attrs: Optional[Dict[str, Any]] = None,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(meta)
        self.trace_id = trace_id
        self.broker = broker
        self.hop = hop
        self.time = float(time)
        self.peer = peer
        self.attrs: Dict[str, Any] = dict(attrs) if attrs else {}

    def describe(self) -> str:
        return "Span({} {}@{:.3f} {} peer={})".format(
            self.trace_id, self.broker, self.time, self.hop, self.peer
        )


class LogEvent(TelemetryEvent):
    """A timestamped, levelled text record from one broker (or the harness)."""

    wire_fields = ("broker", "time", "level", "text")

    __slots__ = ("broker", "time", "level", "text")

    def __init__(
        self,
        broker: str,
        time: float,
        level: str,
        text: str,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(meta)
        self.broker = broker
        self.time = float(time)
        self.level = level
        self.text = text

    def describe(self) -> str:
        return "Log({}@{:.3f} [{}] {})".format(self.broker, self.time, self.level, self.text)


#: Every concrete telemetry event type.
EVENT_TYPES = (MetricSnapshotEvent, SpanEvent, LogEvent)

#: The collector's decode table: type name -> event class.
EVENT_REGISTRY = build_registry(EVENT_TYPES)


def decode_event(data: bytes) -> TelemetryEvent:
    """Rebuild an event from its frame payload; anything but a well-formed
    event (a link message included) raises :class:`~repro.filters.wire.WireError`."""
    return message_from_payload(parse_payload(data), EVENT_REGISTRY)
