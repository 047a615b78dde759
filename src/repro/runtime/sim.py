"""The discrete-event simulator as a runtime backend.

:class:`SimRuntime` adapts :mod:`repro.sim` to the
:class:`~repro.runtime.protocols.Runtime` protocol: the
:class:`~repro.sim.engine.Simulator` *is* the clock (it satisfies the
:class:`~repro.runtime.protocols.Clock` protocol structurally), channels
are :class:`~repro.sim.network.Link` objects with a latency model that
deliver straight into the receiving broker, and execution is the
simulator's deterministic event loop.

The virtual-time asyncio backend runs the same :class:`Link` on its own
simulator (see :mod:`repro.runtime.aio`), and the latency specification
accepted here (a constant, a per-edge mapping, or a factory — see
:mod:`repro.runtime.latency`) means the same delays on both, so delivery
times line up run for run.  ``latency=None`` is the default link latency
(:data:`~repro.runtime.latency.DEFAULT_LINK_LATENCY`) on both.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.messages.base import Message
from repro.runtime.latency import (
    DEFAULT_LINK_LATENCY,
    LatencySpec,
    resolve_latency,
)
from repro.runtime.trace import TraceRecorder
from repro.sim.engine import Simulator
from repro.sim.network import Link

__all__ = ["DEFAULT_LINK_LATENCY", "LatencySpec", "SimRuntime"]


class SimRuntime:
    """Runtime backend running brokers under the discrete-event simulator."""

    def __init__(
        self,
        trace: Optional[TraceRecorder] = None,
        latency: Optional[LatencySpec] = None,
    ) -> None:
        self.simulator = Simulator()
        self._trace = trace or TraceRecorder()
        self._latency_spec = latency if latency is not None else DEFAULT_LINK_LATENCY

    # ------------------------------------------------------------------
    # Runtime protocol
    # ------------------------------------------------------------------
    @property
    def clock(self) -> Simulator:
        """The simulator doubles as the clock."""
        return self.simulator

    @property
    def trace(self) -> TraceRecorder:
        return self._trace

    def connect(
        self, source: str, target: str, deliver: Callable[[Message, Link], None]
    ) -> Link:
        """A FIFO :class:`Link` with the configured latency model."""
        return Link(
            simulator=self.simulator,
            source=source,
            target=target,
            deliver=deliver,
            latency=resolve_latency(self._latency_spec, source, target),
            trace=self._trace,
        )

    def settle(self, max_events: int = 1_000_000) -> int:
        """Run the event queue to quiescence."""
        return self.simulator.drain(settle_limit=max_events)

    def run_until(self, time: float) -> int:
        """Advance simulated time to *time* (inclusive)."""
        return self.simulator.run_until(time)

    def close(self) -> None:
        """Nothing to release: the simulator holds no external resources."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SimRuntime(t={:.3f})".format(self.simulator.now)
