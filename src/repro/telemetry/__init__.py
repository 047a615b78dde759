"""Streaming telemetry subsystem (observability layer).

The package is organised around four pieces (see
``docs/observability.md`` for the full model):

* :mod:`repro.telemetry.registry` — per-broker
  :class:`~repro.telemetry.registry.MetricRegistry`; the single home for
  counters, the dispatch stats sink, gauges and histograms.
* :mod:`repro.telemetry.events` — typed, wire-codable event records
  (metric snapshots, spans, logs).
* :mod:`repro.telemetry.sinks` — where events go (ring buffer, TCP
  stream to a live collector).
* :mod:`repro.telemetry.collector` — the live aggregating server
  (imported lazily; importing this package must stay cheap and
  thread-free).

Telemetry is **opt-in and zero-cost when off**: a network only emits
events when it is built with a :class:`TelemetryConfig`
(``PubSubNetwork(..., telemetry=config)``, or an experiment's
``Backend(..., telemetry=config)``); nothing process-wide turns it on.
Every broker hook site is a single ``is not None`` check.  All event
timestamps come from the run's clock, so under virtual time an
instrumented run is deterministic and the backend-parity gate stays
byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.telemetry.events import (
    HOP_DELIVER,
    HOP_DISPATCH,
    HOP_FORWARD,
    LogEvent,
    MetricSnapshotEvent,
    SpanEvent,
    TelemetryEvent,
    trace_id_of,
)
from repro.telemetry.registry import Histogram, MetricRegistry
from repro.telemetry.sinks import (
    RingBufferSink,
    TcpSink,
    TelemetrySink,
)

__all__ = [
    "HOP_DELIVER",
    "HOP_DISPATCH",
    "HOP_FORWARD",
    "Histogram",
    "LogEvent",
    "MetricRegistry",
    "MetricSnapshotEvent",
    "RingBufferSink",
    "SpanEvent",
    "TcpSink",
    "TelemetryConfig",
    "TelemetryEvent",
    "TelemetrySink",
    "trace_id_of",
]


@dataclass(frozen=True)
class TelemetryConfig:
    """How a network should stream telemetry.

    ``sink_factory`` is called once per network; the returned sink is
    shared by all that network's brokers and closed by
    ``network.close()``.
    """

    sink_factory: Callable[[], TelemetrySink]

    def make_sink(self) -> TelemetrySink:
        return self.sink_factory()

