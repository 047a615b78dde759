"""From-scratch specification of subscription forwarding.

A broker keeps each neighbour's desired ``(filter, subject)`` pairs in a
delta-maintained :class:`~repro.broker.forwarding.NeighbourForwardingState`;
what those pairs must be is written down here in the most obvious way
possible, over nothing but the tables' rows:

* scan the subscription table, skipping rows that point at the neighbour,
  ``MatchNone`` filters, the row each location-dependent subscription is
  stored in (it travels by its own protocol; any *other* row carrying the
  same token is an ordinary subscription) and filters the neighbour
  advertised nothing for;
* reduce the surviving filters with the strategy's Section 2.2 definition
  (:data:`DEFINITIONS`: identity for simple, :func:`minimal_cover_set` for
  covering, :func:`minimal_cover_set` of
  :func:`~repro.filters.merging.merge_filters` for merging, nothing for
  flooding);
* register every subject under the first selected filter covering its own.

:func:`scratch_forwarding` swaps this in for every
:meth:`~repro.broker.base.Broker.refresh_forwarding` in the process, so
whole networks can be run on it and compared with the production path;
it yields the :class:`~tests.oracles.counting.RawWork` the specification
counted its covering tests and pair merges in.
"""

from contextlib import contextmanager

import pytest

from repro.broker.base import Broker
from repro.broker.client import FloodingRelocationError
from repro.filters.covering import filter_covers
from repro.filters.filter import MatchNone
from repro.filters.merging import merge_filters, try_merge_pair

from tests.oracles.counting import RawWork


def minimal_cover_set(filters, covers=filter_covers):
    """Reduce a set of filters to a minimal subset with the same union.

    A filter is dropped when another (distinct) filter in the set covers
    it.  When two filters cover each other (they are equivalent), the one
    appearing first is kept.  The result preserves input order.
    """
    kept = []
    for index, candidate in enumerate(filters):
        redundant = False
        for other_index, other in enumerate(filters):
            if other_index == index:
                continue
            if covers(other, candidate):
                mutual = covers(candidate, other)
                if mutual and other_index > index:
                    # Equivalent filters: keep the earlier one (candidate).
                    continue
                redundant = True
                break
        if not redundant:
            kept.append(candidate)
    return kept


class RoutingDefinition:
    """Section 2.2's definition of one routing strategy, from scratch.

    :meth:`desired_forwarding_set` answers which of the filters registered
    from every direction but a neighbour's should be forwarded there; the
    covering test and the pair merge it runs are *covers* and
    *pair_merge*, so a :class:`~tests.oracles.counting.RawWork` can count
    them.
    """

    name = "base"

    def desired_forwarding_set(self, filters, covers=filter_covers, pair_merge=try_merge_pair):
        """The filters that should be forwarded, given registered *filters*."""
        raise NotImplementedError

    @staticmethod
    def _canonicalise(filters):
        """Drop MatchNone filters and collapse exact duplicates, keeping order."""
        seen = set()
        out = []
        for filter_ in filters:
            if isinstance(filter_, MatchNone):
                continue
            key = filter_.key()
            if key in seen:
                continue
            seen.add(key)
            out.append(filter_)
        return out


class FloodingStrategy(RoutingDefinition):
    """Flood notifications; never forward subscriptions."""

    name = "flooding"

    def desired_forwarding_set(self, filters, covers=filter_covers, pair_merge=try_merge_pair):
        return []


class SimpleStrategy(RoutingDefinition):
    """Forward every registered filter unchanged."""

    name = "simple"

    def desired_forwarding_set(self, filters, covers=filter_covers, pair_merge=try_merge_pair):
        return self._canonicalise(filters)


class CoveringStrategy(RoutingDefinition):
    """Do not forward filters that are covered by another forwarded filter."""

    name = "covering"

    def desired_forwarding_set(self, filters, covers=filter_covers, pair_merge=try_merge_pair):
        return minimal_cover_set(self._canonicalise(filters), covers)


class MergingStrategy(RoutingDefinition):
    """Merge filters into covers before forwarding (plus covering reduction)."""

    name = "merging"

    def desired_forwarding_set(self, filters, covers=filter_covers, pair_merge=try_merge_pair):
        merged = merge_filters(self._canonicalise(filters), pair_merge)
        return minimal_cover_set(merged, covers)


#: Each routing strategy's definition, by name.
DEFINITIONS = {
    definition.name: definition
    for definition in (FloodingStrategy(), SimpleStrategy(), CoveringStrategy(), MergingStrategy())
}


def first_cover(selected, filter_, covers=filter_covers):
    """The selected filter equal to *filter_*, else the first one covering it."""
    for candidate in selected:
        if candidate.key() == filter_.key():
            return candidate
    for candidate in selected:
        if covers(candidate, filter_):
            return candidate
    # The reduction should always leave a cover; forward the filter itself.
    return filter_


def stored_by_logical_protocol(broker, row, subject):
    """Whether *row* is where the location-dependent *subject* keeps its filter."""
    state = broker.logical.states.get(subject)
    return (
        state is not None
        and state.stored_filter is not None
        and state.destination == row.destination
        and state.stored_filter.key() == row.filter.key()
    )


def desired_forwarding(broker, neighbour, work=None):
    """``{(filter key, subject): filter}`` *broker* should have registered at *neighbour*.

    The raw tests it makes are counted in *work*, when given.
    """
    work = RawWork() if work is None else work
    if broker.strategy.floods_notifications:
        # Nothing is forwarded.  This has to precede the reduction: a
        # flooding strategy selects no filter, so every input would take
        # the "forward the filter itself" way out of ``first_cover``.
        return {}
    gated = broker.config.use_advertisements
    entries = []
    for row in broker.subscription_table.entries():
        if row.destination == neighbour or isinstance(row.filter, MatchNone):
            continue
        subjects = [s for s in row.subjects if not stored_by_logical_protocol(broker, row, s)]
        if not subjects:
            continue
        # Asked of the plan, not of the broker's memo, so that production
        # (memoised) is also checked against an unmemoised gate.
        if gated and not broker._dispatch_plan.advertised_via(neighbour, row.filter):
            continue
        entries.append((row.filter, subjects))
    selected = DEFINITIONS[broker.strategy.name].desired_forwarding_set(
        [filter_ for filter_, _ in entries], covers=work.covers, pair_merge=work.merge
    )
    desired = {}
    for filter_, subjects in entries:
        cover = first_cover(selected, filter_, work.covers)
        for subject in subjects:
            desired[(cover.key(), subject)] = cover
    return desired


def move_attached(client, target):
    """``client.move_to(target)`` for an attached *client*, expecting the refusal.

    A flooding network builds no routed rows for Section 4's relocation
    to follow, so moving a client that holds subscriptions to another
    broker there must raise :class:`FloodingRelocationError`.
    """
    refused = (
        target.strategy.floods_notifications
        and target is not client.border_broker
        and client.subscription_ids()
    )
    if refused:
        with pytest.raises(FloodingRelocationError):
            client.move_to(target)
    else:
        client.move_to(target)


def _scratch_refresh(broker, neighbour, work):
    if neighbour not in broker._links:
        return
    desired = desired_forwarding(broker, neighbour, work)
    forwarded = broker.forwarding.states[neighbour].forwarded
    to_add = {pair: filt for pair, filt in desired.items() if pair not in forwarded}
    to_remove = {pair: filt for pair, filt in forwarded.items() if pair not in desired}
    broker.forwarding.emit(neighbour, to_add, to_remove)


@contextmanager
def scratch_forwarding():
    """Answer every forwarding refresh in the process from the specification.

    Brokers built inside the block never rebuild their forwarding states,
    so the states stay invalid and ignore every delta: the run pays for
    the specification only, whose raw work the yielded
    :class:`~tests.oracles.counting.RawWork` counts.
    """
    work = RawWork()
    production = Broker.refresh_forwarding
    Broker.refresh_forwarding = lambda broker, neighbour: _scratch_refresh(broker, neighbour, work)
    try:
        yield work
    finally:
        Broker.refresh_forwarding = production
