"""Fault injection for channels (backend-neutral).

:class:`FaultModel` describes *which* messages are lost or duplicated;
*enforcing* it is the sending link's job.  The one link that enforces
it is :class:`~repro.sim.network.Link`, on the simulator and on the
virtual-time asyncio backend alike: it asks an attached model's
:meth:`FaultModel.decide` at send time, which fixes the check order
(scheduled windows first — no RNG draw — then the iid drop and duplicate
decisions) in one place and so keeps the RNG stream, and therefore
entire failure runs, byte-identical across backends.  Fault injection
needs a modelled clock: a wall-clock asyncio channel has no
``fault_model`` to set.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.rng import DeterministicRandom


class FaultModel:
    """Optional fault injection for robustness experiments.

    Two fault families coexist:

    * **iid faults** — *drop_probability* (a message silently disappears)
      and *duplicate_probability* (a message is delivered twice), decided
      per message from the seeded RNG.
    * **scheduled faults** — deterministic windows driven by the
      backend's clock: :meth:`partition` declares a directed link down
      during ``[t_from, t_to)``; cutting a broker off is a partition on
      each of its links, in both directions.  Messages sent into a downed
      link are dropped (and recorded in the trace with reason
      ``"partition"``) without consuming any RNG draw, so a failure
      schedule never perturbs the iid fault stream.  A *crashed* broker
      is not a fault window: its own intake gate drops what reaches it
      (reason ``"broker-down"``).

    The default pub/sub and mobility experiments never use faults (the
    paper's model is error-free); only the dedicated failure-injection
    tests and the crash/restart scenario family do.
    """

    def __init__(
        self,
        rng: "DeterministicRandom",
        drop_probability: float = 0.0,
        duplicate_probability: float = 0.0,
    ) -> None:
        if not (0.0 <= drop_probability <= 1.0 and 0.0 <= duplicate_probability <= 1.0):
            raise ValueError("probabilities must lie in [0, 1]")
        self._rng = rng
        self.drop_probability = drop_probability
        self.duplicate_probability = duplicate_probability
        # (source, target) -> [(t_from, t_to)] scheduled link-down windows.
        self._partitions: Dict[Tuple[str, str], List[Tuple[float, float]]] = {}

    def should_drop(self) -> bool:
        """Decide whether the next message is lost (iid fault)."""
        return self.drop_probability > 0 and self._rng.random() < self.drop_probability

    def should_duplicate(self) -> bool:
        """Decide whether the next message is duplicated (iid fault)."""
        return (
            self.duplicate_probability > 0 and self._rng.random() < self.duplicate_probability
        )

    def decide(self, source: str, target: str, now: float) -> Tuple[Optional[str], int]:
        """The fate of one message sent on *source* -> *target* at *now*.

        Returns ``(drop_reason, copies)``: a reason (``"partition"`` or
        ``"loss"``) and no copies when the message is dropped, else
        ``None`` and 1 or 2 (duplicated) copies.  Scheduled windows are
        checked first and consume no RNG draw; the duplicate decision is
        drawn only for messages that were not lost.
        """
        down_reason = self.link_down_reason(source, target, now)
        if down_reason is not None:
            return down_reason, 0
        if self.should_drop():
            return "loss", 0
        return None, 2 if self.should_duplicate() else 1

    # -- scheduled faults ---------------------------------------------------
    @staticmethod
    def _check_window(t_from: float, t_to: float) -> Tuple[float, float]:
        if not (0.0 <= t_from < t_to):
            raise ValueError("require 0 <= t_from < t_to, got [{}, {})".format(t_from, t_to))
        return (float(t_from), float(t_to))

    def partition(self, source: str, target: str, t_from: float, t_to: float) -> None:
        """Declare the directed link *source* -> *target* down in ``[t_from, t_to)``."""
        window = self._check_window(t_from, t_to)
        self._partitions.setdefault((source, target), []).append(window)

    def link_down_reason(self, source: str, target: str, now: float) -> Optional[str]:
        """``"partition"`` if a window downs *source* -> *target* at *now*, else ``None``.

        The reason is recorded against every message dropped by the fault.
        """
        windows = self._partitions.get((source, target), ())
        if any(t_from <= now < t_to for t_from, t_to in windows):
            return "partition"
        return None
