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

:func:`runtime_factory` returns a zero-configuration callable so a
backend choice can be threaded through experiment code as a value: each
experiment calls it once per network it builds, with the latency model
that network needs.
"""

from __future__ import annotations

import functools
from typing import Callable, Optional

from repro.runtime.latency import LatencySpec
from repro.runtime.protocols import Runtime
from repro.runtime.trace import TraceRecorder

#: The backend names accepted by :func:`make_runtime` (and the CLI).
BACKENDS = ("sim", "aio-memory", "aio-tcp")

#: A callable producing a fresh runtime per network, pre-bound to a
#: backend; experiments call it as ``factory(latency=...)``.
RuntimeFactory = Callable[..., Runtime]


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

        kwargs = {} if latency is None else {"latency": latency}
        return SimRuntime(trace=trace, **kwargs)
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


def runtime_factory(backend: str) -> RuntimeFactory:
    """A :data:`RuntimeFactory` pre-bound to *backend*.

    Validates the name eagerly so a typo fails at CLI-parse time, not
    in the middle of an experiment.
    """
    if backend not in BACKENDS:
        raise ValueError(
            "unknown backend {!r}; expected one of {}".format(backend, ", ".join(BACKENDS))
        )
    return functools.partial(make_runtime, backend)
