"""Counting-based dispatch: the compiled notification data plane.

Every broker matches notifications through indexed, incrementally
maintained structures:

* :class:`~repro.dispatch.predicate_index.PredicateIndex` — routing-table
  filters decomposed into shared atomic constraints, indexed by
  ``(attribute, operator class)``;
* :class:`~repro.dispatch.counting.BitsetMatcher` — the bit-sliced
  counting pass mapping satisfied predicates back to matching filters;
* :class:`~repro.dispatch.plan.DispatchPlan` — the per-broker plan wiring
  both to the subscription table's row-level deltas.

This is the only matcher the routing tables have; its specification is
the brute force in ``tests/oracles/matching.py``.
"""

from repro.dispatch.counting import BitsetMatcher
from repro.dispatch.plan import DispatchPlan
from repro.dispatch.predicate_index import PredicateIndex
from repro.dispatch.stats import DispatchStats

__all__ = [
    "BitsetMatcher",
    "DispatchPlan",
    "DispatchStats",
    "PredicateIndex",
]
