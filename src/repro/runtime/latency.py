"""Link latency models and the latency specification (backend-neutral).

The paper's communication model is "point-to-point, FIFO order
communication links" with some transmission delay; how that delay is
*realised* differs per backend.  The simulator's link samples a latency
model and schedules the delivery; the asyncio backend in virtual-time
mode runs the very same link on its virtual clock (see
:mod:`repro.runtime.aio`), which is what makes delivery *times* — not
just delivery *orders* — comparable across backends.  Wall-clock
backends measure latency instead of modelling it and ignore these
classes.

A :data:`LatencySpec` is the user-facing shorthand accepted by the
runtimes and :class:`~repro.broker.network.PubSubNetwork`: a constant
(every link), a per-edge mapping (either orientation of the edge key),
or a factory called with ``(source, target)`` returning a model.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Mapping, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.rng import DeterministicRandom

#: Default link latency used when a spec does not name an edge.
DEFAULT_LINK_LATENCY = 0.05  # 50 ms, a typical wide-area broker link


class LatencyModel:
    """Base class for per-message link latency."""

    def sample(self) -> float:
        """Return the latency (in time units) of one message."""
        raise NotImplementedError


class FixedLatency(LatencyModel):
    """Every message takes exactly ``delay`` time units."""

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise ValueError("latency must be non-negative")
        self.delay = float(delay)

    def sample(self) -> float:
        return self.delay

    def __repr__(self) -> str:  # pragma: no cover
        return "FixedLatency({})".format(self.delay)


class UniformLatency(LatencyModel):
    """Latency drawn uniformly from [low, high] using a seeded RNG."""

    def __init__(self, low: float, high: float, rng: "DeterministicRandom") -> None:
        if low < 0 or high < low:
            raise ValueError("require 0 <= low <= high")
        self.low = float(low)
        self.high = float(high)
        self._rng = rng

    def sample(self) -> float:
        return self._rng.uniform(self.low, self.high)

    def __repr__(self) -> str:  # pragma: no cover
        return "UniformLatency({}, {})".format(self.low, self.high)


#: Latency specification: a constant, a per-edge mapping, or a factory
#: called with ``(source, target)``.
LatencySpec = Union[float, Mapping[Tuple[str, str], float], Callable[[str, str], LatencyModel]]


def resolve_latency(spec: LatencySpec, source: str, target: str) -> LatencyModel:
    """The latency model of the ``source -> target`` channel under *spec*.

    Shared by every backend that models latency, so a given spec means
    the same delays on the simulator and on the virtual-time asyncio
    runtime — a precondition for cross-backend delivery-time parity.
    """
    if isinstance(spec, (int, float)):
        return FixedLatency(float(spec))
    if callable(spec):
        return spec(source, target)
    # Mapping: accept either orientation of the edge key.
    if (source, target) in spec:
        return FixedLatency(float(spec[(source, target)]))
    if (target, source) in spec:
        return FixedLatency(float(spec[(target, source)]))
    return FixedLatency(DEFAULT_LINK_LATENCY)
