"""Streaming telemetry subsystem (observability layer).

The package is organised around four pieces (see
``docs/observability.md`` for the full model):

* :mod:`repro.telemetry.registry` — per-broker
  :class:`~repro.telemetry.registry.MetricRegistry`; the single home for
  counters, the dispatch stats sink, gauges and histograms.
* :mod:`repro.telemetry.events` — typed, wire-codable event records
  (metric snapshots, spans, logs).
* :mod:`repro.telemetry.sinks` — where events go (ring buffer, framed
  file, TCP stream to a live collector).
* :mod:`repro.telemetry.collector` — the live aggregating server
  (imported lazily; importing this package must stay cheap and
  thread-free).

Telemetry is **opt-in and zero-cost when off**: the network only emits
events when a :class:`TelemetryConfig` is active (passed to
``PubSubNetwork`` or installed process-wide with
:func:`enable_telemetry`), and every broker hook site is a single
``is not None`` check.  All event timestamps come from the run's clock,
so under virtual time an instrumented run is deterministic and the
backend-parity gate stays byte-identical.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

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
    FramedFileSink,
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
    "FramedFileSink",
    "SpanEvent",
    "TcpSink",
    "TelemetryConfig",
    "TelemetryEvent",
    "TelemetrySink",
    "active_telemetry_config",
    "disable_telemetry",
    "enable_telemetry",
    "telemetry_enabled",
    "trace_id_of",
]


@dataclass
class TelemetryConfig:
    """How a network should stream telemetry.

    ``sink_factory`` is called once per network; the returned sink is
    shared by all that network's brokers and closed by
    ``network.close()``.
    """

    sink_factory: Callable[[], TelemetrySink]

    def make_sink(self) -> TelemetrySink:
        return self.sink_factory()


_ACTIVE_CONFIG: Optional[TelemetryConfig] = None


def enable_telemetry(config: TelemetryConfig) -> None:
    """Install *config* as the process-wide default for new networks."""
    global _ACTIVE_CONFIG
    _ACTIVE_CONFIG = config


def disable_telemetry() -> None:
    """Remove the process-wide default (new networks run dark again)."""
    global _ACTIVE_CONFIG
    _ACTIVE_CONFIG = None


def active_telemetry_config() -> Optional[TelemetryConfig]:
    """The process-wide default config, or ``None`` when telemetry is off."""
    return _ACTIVE_CONFIG


@contextmanager
def telemetry_enabled(config: TelemetryConfig):
    """Scope the process-wide default to a ``with`` block (tests/CLIs)."""
    previous = _ACTIVE_CONFIG
    enable_telemetry(config)
    try:
        yield config
    finally:
        if previous is None:
            disable_telemetry()
        else:
            enable_telemetry(previous)
