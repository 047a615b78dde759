"""Backend selection by name.

Experiments and the CLI runner pick their backend with a single string:

* ``"sim"`` — the discrete-event simulator
  (:class:`~repro.runtime.sim.SimRuntime`), the default and the oracle.
* ``"aio-memory"`` — the asyncio backend in **virtual-time** mode over
  in-process byte pipes: every message crosses the wire codec, and the
  clock and the links are the simulator's own
  (:class:`~repro.sim.engine.Simulator`, :class:`~repro.sim.network.Link`).
* ``"aio-tcp"`` — the same, over real loopback TCP connections.

Both asyncio variants are created with ``virtual_time=True`` because the
callers of this module — the experiment suite and its backend-parity
gate — need the simulator's ``settle``/``run_until`` semantics (timers
fast-forwarded, modelled latency).  Code that wants the wall-clock
asyncio backend constructs :class:`~repro.runtime.aio.AioRuntime`
directly.

:func:`make_runtime` is the one way a runtime is built by name: the
default runtime of a :class:`~repro.broker.network.PubSubNetwork` and
every network of an experiment (:mod:`repro.experiments.backends`) come
from it.
"""

from __future__ import annotations

from typing import Optional

from repro.runtime.latency import LatencySpec
from repro.runtime.protocols import Runtime
from repro.runtime.trace import TraceRecorder

#: The backend names accepted by :func:`make_runtime` (and the CLI).
BACKENDS = ("sim", "aio-memory", "aio-tcp")


def make_runtime(
    backend: str,
    latency: Optional[LatencySpec] = None,
    trace: Optional[TraceRecorder] = None,
) -> Runtime:
    """Create a fresh runtime for *backend* (one of :data:`BACKENDS`).

    ``latency=None`` means the backend default (50 ms on every link) —
    the same default on every backend, so traces stay comparable.
    """
    if backend == "sim":
        from repro.runtime.sim import SimRuntime

        return SimRuntime(trace=trace, latency=latency)
    if backend in ("aio-memory", "aio-tcp"):
        from repro.runtime.aio import AioRuntime

        return AioRuntime(
            transport=backend.split("-", 1)[1],
            trace=trace,
            virtual_time=True,
            latency=latency,
        )
    raise ValueError(
        "unknown backend {!r}; expected one of {}".format(backend, ", ".join(BACKENDS))
    )

