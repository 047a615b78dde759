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

from importlib import import_module

#: Where each lazily re-exported name lives (PEP 562): a network loads
#: the runtime modules it uses, and not the fault model.
_EXPORTS = {
    "BACKENDS": "repro.runtime.factory",
    "make_runtime": "repro.runtime.factory",
    "FaultModel": "repro.runtime.faults",
    "DEFAULT_LINK_LATENCY": "repro.runtime.latency",
    "FixedLatency": "repro.runtime.latency",
    "LatencyModel": "repro.runtime.latency",
    "LatencySpec": "repro.runtime.latency",
    "UniformLatency": "repro.runtime.latency",
    "resolve_latency": "repro.runtime.latency",
    "Channel": "repro.runtime.protocols",
    "Clock": "repro.runtime.protocols",
    "Runtime": "repro.runtime.protocols",
    "ScheduledCall": "repro.runtime.protocols",
    "DeliveryRecord": "repro.runtime.trace",
    "LinkRecord": "repro.runtime.trace",
    "PublishRecord": "repro.runtime.trace",
    "TraceRecorder": "repro.runtime.trace",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    """Load a re-exported name from its module on first use (PEP 562)."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError("module {!r} has no attribute {!r}".format(__name__, name))
    return getattr(import_module(module), name)
