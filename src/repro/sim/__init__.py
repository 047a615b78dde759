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

from importlib import import_module

#: Where each lazily re-exported name lives (PEP 562): the simulator
#: runtime loads its engine and links, and not the seeded RNG.
_EXPORTS = {
    "Simulator": "repro.sim.engine",
    "Event": "repro.sim.engine",
    "Link": "repro.sim.network",
    "DeterministicRandom": "repro.sim.rng",
}

__all__ = ["Simulator", "Event", "Link", "DeterministicRandom"]


def __getattr__(name):
    """Load a re-exported name from its module on first use (PEP 562)."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError("module {!r} has no attribute {!r}".format(__name__, name))
    return getattr(import_module(module), name)
