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
  (:meth:`~repro.routing.strategies.RoutingStrategy.desired_forwarding_set`);
* register every subject under the first selected filter covering its own.

:func:`scratch_forwarding` swaps this in for every
:meth:`~repro.broker.base.Broker.refresh_forwarding` in the process, so
whole networks can be run on it and compared with the production path;
it yields the :class:`~tests.oracles.counting.RawWork` the specification
counted its covering tests and pair merges in.
"""

from contextlib import contextmanager

from repro.broker.base import Broker
from repro.filters.covering import filter_covers
from repro.filters.filter import MatchNone

from tests.oracles.counting import RawWork


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
    with work.counting_library_reductions():
        selected = broker.strategy.desired_forwarding_set([filter_ for filter_, _ in entries])
    desired = {}
    for filter_, subjects in entries:
        cover = first_cover(selected, filter_, work.covers)
        for subject in subjects:
            desired[(cover.key(), subject)] = cover
    return desired


def _scratch_refresh(broker, neighbour, work):
    if neighbour not in broker._links:
        return
    desired = desired_forwarding(broker, neighbour, work)
    forwarded = broker._forwarded_subscriptions[neighbour]
    to_add = {pair: filt for pair, filt in desired.items() if pair not in forwarded}
    to_remove = {pair: filt for pair, filt in forwarded.items() if pair not in desired}
    broker._emit_forwarding_diff(neighbour, forwarded, to_add, to_remove)


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
