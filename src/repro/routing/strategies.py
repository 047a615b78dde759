"""Routing strategies.

A strategy answers one question: given the set of filters a broker has
registered from all directions other than neighbour ``N``, which filters
should actually be *forwarded* to ``N``?  Brokers then diff that desired
set against what they have already forwarded and emit the corresponding
``Subscribe`` / ``Unsubscribe`` administrative messages (see
:mod:`repro.broker.base`).  Expressing all strategies through this single
"desired forwarding set" hook keeps subscription, unsubscription and
relocation handling uniform and makes each strategy easy to test in
isolation.

:meth:`RoutingStrategy.desired_forwarding_set` is the *definition*.
Brokers do not call it per refresh: they maintain its result under
routing-table deltas (:mod:`repro.broker.forwarding`, selected by
:attr:`RoutingStrategy.delta_reduction`), and
``tests/oracles/forwarding.py`` holds that maintained result to this
definition.

The strategies correspond to Section 2.2 of the paper:

* :class:`FloodingStrategy` — notifications are flooded, so no
  subscription is ever forwarded (the desired set is always empty).
* :class:`SimpleStrategy` — "active filters are simply added to the
  routing tables"; every filter is forwarded (duplicates collapse because
  the desired set is a set of canonical filters).  Over canonical filters
  simple routing *is* the paper's identity-based routing ("check and
  combine filters that are equal"), so there is no second strategy for it.
* :class:`CoveringStrategy` — filters covered by another filter in the set
  are not forwarded.
* :class:`MergingStrategy` — filters are perfectly merged before the
  covering reduction.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.filters.covering import minimal_cover_set
from repro.filters.filter import Filter, MatchNone
from repro.filters.merging import merge_filters


class RoutingStrategy:
    """Base class: computes the desired forwarding set for a neighbour."""

    #: Short name used in configuration, traces and benchmark labels.
    name: str = "base"

    #: Whether brokers forward notifications to every neighbour regardless
    #: of the routing table (flooding) or only along matching table entries.
    floods_notifications: bool = False

    #: How :class:`~repro.broker.forwarding.NeighbourForwardingState`
    #: maintains this strategy's reduction: ``"covering"`` (maintain a
    #: minimal cover set), ``"merging"`` (re-run the greedy merge through
    #: the network's pair-merge cache after each structural change, then
    #: the covering selection over the merged filters) or
    #: ``"none"`` (no reduction; forward every canonical filter).
    delta_reduction: str = "none"

    def desired_forwarding_set(self, filters: Sequence[Filter]) -> List[Filter]:
        """The filters that should be forwarded, given registered *filters*."""
        raise NotImplementedError

    @staticmethod
    def _canonicalise(filters: Sequence[Filter]) -> List[Filter]:
        """Drop MatchNone filters and collapse exact duplicates, keeping order."""
        seen = set()
        out: List[Filter] = []
        for filter_ in filters:
            if isinstance(filter_, MatchNone):
                continue
            key = filter_.key()
            if key in seen:
                continue
            seen.add(key)
            out.append(filter_)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "{}()".format(type(self).__name__)


class FloodingStrategy(RoutingStrategy):
    """Flood notifications; never forward subscriptions."""

    name = "flooding"
    floods_notifications = True

    def desired_forwarding_set(self, filters: Sequence[Filter]) -> List[Filter]:
        return []


class SimpleStrategy(RoutingStrategy):
    """Forward every registered filter unchanged."""

    name = "simple"

    def desired_forwarding_set(self, filters: Sequence[Filter]) -> List[Filter]:
        return self._canonicalise(filters)


class CoveringStrategy(RoutingStrategy):
    """Do not forward filters that are covered by another forwarded filter."""

    name = "covering"
    delta_reduction = "covering"

    def desired_forwarding_set(self, filters: Sequence[Filter]) -> List[Filter]:
        return minimal_cover_set(self._canonicalise(filters))


class MergingStrategy(RoutingStrategy):
    """Merge filters into covers before forwarding (plus covering reduction)."""

    name = "merging"
    delta_reduction = "merging"

    def desired_forwarding_set(self, filters: Sequence[Filter]) -> List[Filter]:
        merged = merge_filters(self._canonicalise(filters))
        return minimal_cover_set(merged)


_STRATEGIES: Dict[str, type] = {
    cls.name: cls
    for cls in (
        FloodingStrategy,
        SimpleStrategy,
        CoveringStrategy,
        MergingStrategy,
    )
}


def make_strategy(name: str) -> RoutingStrategy:
    """Instantiate a routing strategy by name.

    Valid names: ``flooding``, ``simple``, ``covering``, ``merging``.
    """
    try:
        return _STRATEGIES[name]()
    except KeyError:
        raise ValueError(
            "unknown routing strategy {!r}; valid: {}".format(name, sorted(_STRATEGIES))
        ) from None


def available_strategies() -> List[str]:
    """Names of all registered routing strategies."""
    return sorted(_STRATEGIES)
