"""Deterministic discrete-event simulation substrate.

The paper's system model (Section 2.1) assumes point-to-point, FIFO,
error-free communication links between brokers, local real-time clocks,
and message delays that follow some probability distribution.  We realise
that model with a single-threaded discrete-event simulator:

* :class:`~repro.sim.engine.Simulator` — the event queue and clock.
* :class:`~repro.sim.network.Link` — a FIFO link with a latency model and
  optional fault injection (used only by robustness tests; the default is
  the paper's lossless model).
* :class:`~repro.sim.rng.DeterministicRandom` — a seeded RNG wrapper so
  experiments are exactly reproducible.

Latency models, fault models and the trace recorder are backend-neutral
and live in :mod:`repro.runtime`.
"""

from repro.sim.engine import Event, Simulator
from repro.sim.network import Link
from repro.sim.rng import DeterministicRandom

__all__ = ["Simulator", "Event", "Link", "DeterministicRandom"]
