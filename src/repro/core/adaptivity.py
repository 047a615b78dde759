"""Adaptive choice of per-hop uncertainty levels (Section 5.3).

Every broker ``B_i`` on the path from the consumer to a producer
subscribes to ``ploc(x, level_i)`` for the consumer's current location
``x``.  The *uncertainty level* ``level_i`` decides how much "buffering"
(pre-subscription to possible future locations) the scheme inserts at hop
``i``:

* ``level_i = i`` (the *static* plan) corresponds to the introductory
  example of Section 5.1/5.2 where processing one subscription takes about
  as long as the client stays at one location (Table 2).
* The *trivial sub/unsub* end point uses ``level_i = 1`` for every hop
  ``i >= 1`` — "the algorithm always has to provide information for 'the
  next' user location" (Table 3, top).
* The *flooding* end point uses the saturating level (the movement-graph
  diameter), so every hop subscribes to all locations (Table 3, bottom).
* The *adaptive* plan (Figure 8, Table 4) compares the client's average
  dwell time Δ with the cumulative subscription processing delays
  δ₁ + ... + δᵢ: "whenever the sum of δᵢ results in a value larger than
  the next multiple of Δ then the value of ploc must take a step".

The worked example (Δ = 100 ms, δ = 120, 50, 50, 20 ms) yields levels
0, 1, 1, 2 for hops 0..3, reproducing Table 4.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.ploc import MovementGraph


class AdaptivityError(ValueError):
    """Raised for invalid timing parameters."""


def static_levels(hops: int) -> List[int]:
    """The introductory plan of Section 5.1: ``level_i = i``.

    *hops* counts the filters F0 .. F_hops, so the returned list has
    ``hops + 1`` entries ``[0, 1, 2, ..., hops]``.
    """
    if hops < 0:
        raise AdaptivityError("hops must be non-negative")
    return list(range(hops + 1))


def trivial_levels(hops: int) -> List[int]:
    """The "global sub/unsub" end point (Table 3 top): one step of look-ahead.

    Hop 0 remains exact client-side filtering; every further hop covers the
    locations reachable within one movement step.
    """
    if hops < 0:
        raise AdaptivityError("hops must be non-negative")
    return [0] + [1] * hops


def flooding_levels(hops: int, saturation: int) -> List[int]:
    """The flooding end point (Table 3 bottom): every hop covers all locations.

    *saturation* is the level at which ``ploc`` covers the whole location
    set (the movement-graph diameter).  Hop 0 still filters exactly —
    this is "flooding with client-side filtering" (Figure 3b).
    """
    if hops < 0:
        raise AdaptivityError("hops must be non-negative")
    if saturation < 0:
        raise AdaptivityError("saturation level must be non-negative")
    return [0] + [saturation] * hops


def adaptive_levels(dwell_time: float, hop_delays: Sequence[float]) -> List[int]:
    """Per-hop levels from the dwell time Δ and hop delays δ₁..δ_k (Figure 8).

    Level 0 belongs to hop 0 (client-side filtering).  For hop ``i >= 1``
    the level is one plus the number of multiples of Δ that the cumulative
    delay δ₁ + ... + δᵢ has exceeded — with a floor of one step of
    look-ahead, because the scheme "always has to provide information for
    'the next' user location to maintain the semantics of flooding"
    (Section 5.3).

    With Δ = 100 and δ = (120, 50, 50, 20) this yields ``[0, 1, 1, 2, 2]``:
    the cumulative sums are 120, 170, 220, 240, crossing the multiples 100
    (at hop 1) and 200 (at hop 3), exactly as in Figure 8 / Table 4.
    """
    if dwell_time <= 0:
        raise AdaptivityError("dwell time must be positive")
    levels = [0]
    cumulative = 0.0
    for delay in hop_delays:
        if delay < 0:
            raise AdaptivityError("hop delays must be non-negative")
        cumulative += delay
        # Count the multiples m*Δ (m >= 1) strictly exceeded by the
        # cumulative delay; a sum exactly equal to a multiple has not
        # exceeded "the next multiple" yet.
        multiples_crossed = 0
        multiple = dwell_time
        while multiple < cumulative:
            multiples_crossed += 1
            multiple += dwell_time
        levels.append(max(1, multiples_crossed))
    return levels


class UncertaintyPlan:
    """A concrete assignment of uncertainty levels to hops for one subscription.

    The plan is carried with a location-dependent subscription through the
    broker network; a broker at hop distance ``i`` from the consumer's
    border broker subscribes to ``ploc(x, level_for_hop(i))``.

    Parameters
    ----------
    levels:
        ``levels[i]`` is the uncertainty level at hop ``i``; hop 0 is the
        consumer-side exact filter.  Hops beyond the end of the list reuse
        the last level (the chain saturates).
    name:
        Label used by metrics and experiment output ("static", "adaptive",
        "trivial", "flooding").
    """

    __slots__ = ("levels", "name")

    def __init__(self, levels: List[int], name: str = "static") -> None:
        if not levels:
            raise AdaptivityError("an uncertainty plan needs at least the hop-0 level")
        if any(level < 0 for level in levels):
            raise AdaptivityError("levels must be non-negative")
        if levels[0] != 0:
            raise AdaptivityError("hop 0 must use level 0 (exact client-side filtering)")
        for earlier, later in zip(levels, levels[1:]):
            if later < earlier:
                raise AdaptivityError(
                    "levels must be non-decreasing along the path (got {})".format(levels)
                )
        self.levels = levels
        self.name = name

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.levels, self.name) == (other.levels, other.name)

    def __repr__(self) -> str:
        return "UncertaintyPlan(levels={!r}, name={!r})".format(self.levels, self.name)

    # -- constructors ---------------------------------------------------------
    @classmethod
    def static(cls, hops: int) -> "UncertaintyPlan":
        """``level_i = i`` (the Section 5.2 example plan)."""
        return cls(levels=static_levels(hops), name="static")

    @classmethod
    def trivial(cls, hops: int) -> "UncertaintyPlan":
        """The global sub/unsub end point (Table 3 top)."""
        return cls(levels=trivial_levels(hops), name="trivial")

    @classmethod
    def flooding(cls, hops: int, graph: MovementGraph) -> "UncertaintyPlan":
        """The flooding end point (Table 3 bottom) for a given movement graph."""
        return cls(levels=flooding_levels(hops, graph.diameter()), name="flooding")

    @classmethod
    def adaptive(cls, dwell_time: float, hop_delays: Sequence[float]) -> "UncertaintyPlan":
        """The adaptive plan of Section 5.3 (Figure 8 rule)."""
        return cls(levels=adaptive_levels(dwell_time, hop_delays), name="adaptive")

    # -- queries -----------------------------------------------------------------
    def level_for_hop(self, hop: int) -> int:
        """The uncertainty level a broker at hop distance *hop* should use."""
        if hop < 0:
            raise AdaptivityError("hop must be non-negative")
        if hop < len(self.levels):
            return self.levels[hop]
        return self.levels[-1]

    def describe(self) -> str:
        """Short human-readable description used in experiment output."""
        return "{} plan, levels={}".format(self.name, self.levels)
