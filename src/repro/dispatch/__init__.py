"""Counting-based dispatch: the compiled notification data plane.

Every broker matches notifications and gates subscription forwarding
through indexed, incrementally maintained structures:

* :class:`~repro.dispatch.predicate_index.PredicateIndex` — routing-table
  filters decomposed into shared atomic constraints, indexed by
  ``(attribute, operator class)``;
* :class:`~repro.dispatch.counting.BitsetMatcher` — the bit-sliced
  counting pass mapping satisfied predicates back to matching filters;
* :class:`~repro.dispatch.plan.DispatchPlan` — the per-broker plan wiring
  both to the subscription table's row-level deltas;
* :class:`~repro.dispatch.overlap.AdvertisementOverlapIndex` — the
  advertisements received from one neighbour, indexed for the
  advertisement gate; each forwarding state holds one
  (``SubscriptionForwarding.may_forward``).

This is the only matcher the routing tables have; its specification is
the brute force in ``tests/oracles/matching.py``.
"""

from repro.dispatch.counting import BitsetMatcher
from repro.dispatch.overlap import AdvertisementOverlapIndex
from repro.dispatch.plan import DispatchPlan
from repro.dispatch.predicate_index import PredicateIndex
from repro.dispatch.stats import DispatchStats

__all__ = [
    "AdvertisementOverlapIndex",
    "BitsetMatcher",
    "DispatchPlan",
    "DispatchStats",
    "PredicateIndex",
]
