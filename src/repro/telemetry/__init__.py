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

from importlib import import_module
from typing import TYPE_CHECKING, Callable, NamedTuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.sinks import TelemetrySink

#: Where each lazily re-exported name lives (PEP 562): a network built
#: without telemetry loads neither the events nor the sinks.
_EXPORTS = {
    "HOP_DELIVER": "repro.telemetry.events",
    "HOP_DISPATCH": "repro.telemetry.events",
    "HOP_FORWARD": "repro.telemetry.events",
    "LogEvent": "repro.telemetry.events",
    "MetricSnapshotEvent": "repro.telemetry.events",
    "SpanEvent": "repro.telemetry.events",
    "TelemetryEvent": "repro.telemetry.events",
    "trace_id_of": "repro.telemetry.events",
    "Histogram": "repro.telemetry.registry",
    "MetricRegistry": "repro.telemetry.registry",
    "RingBufferSink": "repro.telemetry.sinks",
    "TcpSink": "repro.telemetry.sinks",
    "TelemetrySink": "repro.telemetry.sinks",
}

__all__ = sorted([*_EXPORTS, "TelemetryConfig"])


def __getattr__(name):
    """Load a re-exported name from its module on first use (PEP 562)."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError("module {!r} has no attribute {!r}".format(__name__, name))
    return getattr(import_module(module), name)


class TelemetryConfig(NamedTuple):
    """How a network should stream telemetry.

    ``sink_factory`` is called once per network; the returned sink is
    shared by all that network's brokers and closed by
    ``network.close()``.
    """

    sink_factory: Callable[[], TelemetrySink]

    def make_sink(self) -> TelemetrySink:
        return self.sink_factory()
