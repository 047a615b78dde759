"""Routing strategies, as data.

A :class:`RoutingStrategy` is what a broker reads of one of Section 2.2's
four routing algorithms (listed in :mod:`repro.routing`).  Brokers never
compute a strategy's forwarding set from scratch: they maintain it under
routing-table deltas (:mod:`repro.broker.forwarding`), in the mode its
:attr:`~RoutingStrategy.delta_reduction` names.  The from-scratch
definitions live with the tests, in ``tests/oracles/forwarding.py``,
which holds the maintained result to them.
"""

from __future__ import annotations

from typing import Dict, NamedTuple


class RoutingStrategy(NamedTuple):
    """What a broker reads of its routing strategy."""

    #: Short name used in configuration, traces and benchmark labels.
    name: str

    #: Whether brokers forward notifications to every neighbour regardless
    #: of the routing table (flooding) or only along matching table entries.
    floods_notifications: bool = False

    #: How :class:`~repro.broker.forwarding.NeighbourForwardingState`
    #: maintains this strategy's reduction: ``"covering"`` (maintain a
    #: minimal cover set), ``"merging"`` (re-run the greedy merge through
    #: the network's pair-merge memo after each structural change) or
    #: ``"none"`` (no reduction; forward every canonical filter).
    delta_reduction: str = "none"


_STRATEGIES: Dict[str, RoutingStrategy] = {
    strategy.name: strategy
    for strategy in (
        RoutingStrategy("flooding", floods_notifications=True),
        RoutingStrategy("simple"),
        RoutingStrategy("covering", delta_reduction="covering"),
        RoutingStrategy("merging", delta_reduction="merging"),
    )
}


def make_strategy(name: str) -> RoutingStrategy:
    """The routing strategy called *name*.

    Valid names: ``flooding``, ``simple``, ``covering``, ``merging``.
    """
    try:
        return _STRATEGIES[name]
    except KeyError:
        raise ValueError(
            "unknown routing strategy {!r}; valid: {}".format(name, sorted(_STRATEGIES))
        ) from None

