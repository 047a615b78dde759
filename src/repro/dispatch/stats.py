"""Counters describing the work the counting dispatch engine performs.

Evaluating a filter directly shows up in
:data:`repro.filters.stats.matching_stats` (every constraint evaluated by
``Filter.matches``).  The counting engine replaces most of those
evaluations with bucket lookups and bisections; what little it still
evaluates directly (residual constraints, interval candidates, opaque
filters) is counted both here *and* in ``matching_stats.constraint_evals``
so that a single counter compares fairly against the brute-force oracle.

Like :mod:`repro.filters.stats`, the process-wide :data:`dispatch_stats`
is an aggregate facade: hot paths write through ``dispatch_stats.current``
(a plain :class:`DispatchStats` sink — the broker's own while one of its
entry points is on the stack, the unattributed base otherwise) and every
read sums all registered sinks, so the totals are byte-identical to the
pre-facade globals while per-broker attribution comes for free.
"""

from __future__ import annotations

from typing import Dict

from repro.filters.stats import AggregatedStats, _install_aggregate_properties


class DispatchStats:
    """Counters for one counting-index sink (see module docstring)."""

    __slots__ = (
        "matches",
        "satisfied_predicates",
        "constraint_evals",
        "filters_matched",
        "mask_ops",
        "bitset_rebuilds",
        "predicates_skipped_shared",
        "batched_groups",
        "__weakref__",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        #: Counting passes performed (one per notification per broker).
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
        #: Notification groups (same attribute signature inside one link
        #: flush) whose match result was computed once and reused.
        self.batched_groups = 0

    def snapshot(self) -> Dict[str, int]:
        """Current counter values (used by benchmarks and metrics)."""
        return {
            "matches": self.matches,
            "satisfied_predicates": self.satisfied_predicates,
            "constraint_evals": self.constraint_evals,
            "filters_matched": self.filters_matched,
            "mask_ops": self.mask_ops,
            "bitset_rebuilds": self.bitset_rebuilds,
            "predicates_skipped_shared": self.predicates_skipped_shared,
            "batched_groups": self.batched_groups,
        }


class DispatchStatsAggregate(AggregatedStats):
    """Process-wide view over every dispatch-stats sink."""

    sink_type = DispatchStats
    fields = DispatchStats.__slots__[:-1]  # without __weakref__

    def snapshot(self) -> Dict[str, int]:
        # Key order pinned to the historical sink snapshot.
        return {field: self._total(field) for field in self.fields}


_install_aggregate_properties(DispatchStatsAggregate)


#: Global facade incremented (through ``.current``) by the counting
#: matcher; reads sum the base sink and every broker registry's sink.
dispatch_stats = DispatchStatsAggregate()
