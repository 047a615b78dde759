"""Counters describing the work the counting dispatch engine performs.

Every broker owns one :class:`DispatchStats` sink (in its
:class:`~repro.telemetry.registry.MetricRegistry`) and hands it to its
:class:`~repro.dispatch.plan.DispatchPlan`, which passes it on to the
:class:`~repro.dispatch.predicate_index.PredicateIndex` and the
:class:`~repro.dispatch.counting.BitsetMatcher` — the components that do
the work write the counts, nothing else does.  The counting engine
replaces most constraint evaluations with bucket lookups and bisections;
what little it still evaluates directly (residual constraints, interval
candidates, opaque filters) is ``constraint_evals``, the one count that
compares against the brute-force oracle's raw evaluations.
"""

from __future__ import annotations

from typing import Dict


class DispatchStats:
    """Counters for one broker's dispatch plane (see module docstring)."""

    __slots__ = (
        "matches",
        "satisfied_predicates",
        "constraint_evals",
        "filters_matched",
        "mask_ops",
        "bitset_rebuilds",
        "predicates_skipped_shared",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        #: Counting passes performed (one per notification per broker,
        #: unless it repeats the plan's previous probe).
        self.matches = 0
        #: Predicates satisfied across all passes (bucket/bisect hits).
        self.satisfied_predicates = 0
        #: Raw ``Constraint.matches`` / ``Filter.matches`` evaluations the
        #: index could not answer from its buckets.
        self.constraint_evals = 0
        #: Filters reported as matching across all passes.
        self.filters_matched = 0
        #: Whole-mask big-int operations performed by the bitset matcher
        #: (plane carries, hot-predicate vetoes, the final combine): the
        #: matcher's unit of work, each one standing in for up to one
        #: counter bump *per filter* of a scalar counting pass.
        self.mask_ops = 0
        #: Predicate masks recompiled from ``pid_fids`` (dirty buckets
        #: only on churn; every live bucket on a full rebuild).
        self.bitset_rebuilds = 0
        #: Satisfied hot (near-universal) predicates lifted out of the
        #: counting arity: each one is a bucket whose whole fan-out cost
        #: nothing at all.
        self.predicates_skipped_shared = 0

    def snapshot(self) -> Dict[str, int]:
        """Current counter values, in slot order."""
        return {name: getattr(self, name) for name in self.__slots__}
