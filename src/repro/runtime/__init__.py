"""Runtime layer: the narrow seam between the broker core and a backend.

The broker core (:mod:`repro.broker`, :mod:`repro.routing`,
:mod:`repro.dispatch`) implements the paper's middleware against three
small protocols only — :class:`~repro.runtime.protocols.Clock`,
:class:`~repro.runtime.protocols.Channel` and
:class:`~repro.runtime.protocols.Runtime` — and never imports a concrete
backend.  Two backends implement the seam:

* :mod:`repro.runtime.sim` — :class:`~repro.runtime.sim.SimRuntime`
  adapts the discrete-event simulator (:mod:`repro.sim`): simulated
  time, latency-modelled FIFO links, deterministic event ordering.  The
  default, and the oracle every behavioural test pins.
* :mod:`repro.runtime.aio` — :class:`~repro.runtime.aio.AioRuntime`
  runs the same brokers on an asyncio event loop over length-prefixed
  framed byte streams (in-memory duplex pairs by default, real TCP
  optionally), serialising every message through the wire codec
  (:mod:`repro.messages.wire`).

:mod:`repro.runtime.trace` holds the backend-neutral
:class:`~repro.runtime.trace.TraceRecorder` both backends feed.

See ``docs/architecture.md`` for the layering rules (notably: no
``repro.sim`` import anywhere under ``repro.broker``, ``repro.routing``
or ``repro.dispatch``; ``tests/test_layering.py`` enforces this).
"""

from repro.runtime.factory import BACKENDS, make_runtime
from repro.runtime.faults import FaultModel
from repro.runtime.latency import (
    DEFAULT_LINK_LATENCY,
    FixedLatency,
    LatencyModel,
    LatencySpec,
    UniformLatency,
    resolve_latency,
)
from repro.runtime.protocols import Channel, Clock, Runtime, ScheduledCall
from repro.runtime.trace import (
    DeliveryRecord,
    LinkRecord,
    PublishRecord,
    TraceRecorder,
)

__all__ = [
    "BACKENDS",
    "Channel",
    "Clock",
    "DEFAULT_LINK_LATENCY",
    "DeliveryRecord",
    "FaultModel",
    "FixedLatency",
    "LatencyModel",
    "LatencySpec",
    "LinkRecord",
    "PublishRecord",
    "Runtime",
    "ScheduledCall",
    "TraceRecorder",
    "UniformLatency",
    "make_runtime",
    "resolve_latency",
]
