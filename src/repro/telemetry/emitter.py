"""Per-broker telemetry emitter.

:class:`BrokerTelemetry` is the thin object a broker holds when
telemetry is enabled (``broker._telemetry``).  It knows the broker's
name, the run's clock (virtual-time safe), the network's sink and its
event-id source, and turns instrumentation calls into typed, numbered
events.  When telemetry is disabled the broker holds ``None`` instead
and every hook site is a single ``is not None`` check — the
zero-cost-off guarantee.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.messages.base import MessageIds
from repro.telemetry.events import (
    HOP_DELIVER,
    HOP_DISPATCH,
    HOP_FORWARD,
    LogEvent,
    MetricSnapshotEvent,
    SpanEvent,
    trace_id_of,
)
from repro.telemetry.registry import MetricRegistry
from repro.telemetry.sinks import TelemetrySink


class BrokerTelemetry:
    """Emits one broker's telemetry events into the network's sink."""

    __slots__ = ("sink", "broker", "clock", "ids")

    def __init__(self, sink: TelemetrySink, broker: str, clock: Any, ids: MessageIds) -> None:
        self.sink = sink
        self.broker = broker
        self.clock = clock
        self.ids = ids

    def span(
        self,
        trace_id: str,
        hop: str,
        peer: Optional[str] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Record one hop of a notification's journey at ``clock.now()``."""
        span = SpanEvent(
            trace_id=trace_id,
            broker=self.broker,
            hop=hop,
            time=self.clock.now,
            peer=peer,
            attrs=attrs,
        )
        self.sink.emit(self.ids.stamp(span))

    def dispatched(self, notification: Any, peer: Optional[str], attrs: Dict[str, Any]) -> None:
        """The broker matched *notification*, which came from *peer*."""
        self.span(trace_id_of(notification), HOP_DISPATCH, peer, attrs)

    def forwarded(self, notification: Any, peer: str) -> None:
        """The broker sent *notification* on toward the neighbour *peer*."""
        self.span(trace_id_of(notification), HOP_FORWARD, peer)

    def delivered(self, notification: Any, peer: str, attrs: Dict[str, Any]) -> None:
        """The broker handed *notification* to its local client *peer*."""
        self.span(trace_id_of(notification), HOP_DELIVER, peer, attrs)

    def log(self, level: str, text: str) -> None:
        """Record a levelled text event at ``clock.now()``."""
        event = LogEvent(broker=self.broker, time=self.clock.now, level=level, text=text)
        self.sink.emit(self.ids.stamp(event))

    def snapshot(self, registry: MetricRegistry) -> None:
        """Emit the registry's full state as a metric snapshot event."""
        snapshot = MetricSnapshotEvent(
            broker=self.broker,
            time=self.clock.now,
            counters=registry.counter_snapshot(),
            gauges=registry.gauge_snapshot(),
            histograms=registry.histogram_snapshot(),
        )
        self.sink.emit(self.ids.stamp(snapshot))
