"""Brute-force specification of the dispatch plane.

``repro.dispatch`` is the only matcher the routing tables have; what it
must compute is written down here in the most obvious way possible, over
nothing but the tables' rows:

* a notification matches exactly the rows whose filter accepts it;
* a neighbour passes the advertisement gate for a filter exactly when
  one of its advertisement rows may overlap that filter.

:func:`oracle_dispatch` swaps the specification in for every
:class:`~repro.dispatch.plan.DispatchPlan` match and every advertisement
gate (``SubscriptionForwarding.may_forward``) in the process, so whole
networks can be run on it and compared with the production path; it
yields the :class:`~tests.oracles.counting.RawWork` the specification
counted its constraint evaluations in.
"""

from contextlib import contextmanager

from repro.broker.forwarding import SubscriptionForwarding
from repro.dispatch.plan import DispatchPlan
from repro.filters.constraints import Equals, InSet
from repro.filters.filter import MatchNone

from tests.oracles.counting import RawWork


def matching_rows(table, attributes, work=None):
    """Every row of *table* whose filter matches *attributes*.

    The constraint evaluations are counted in *work*, when given.
    """
    matches = (RawWork() if work is None else work).matches
    return [row for row in table.entries() if matches(row.filter, attributes)]


def filters_overlap_hint(left, right):
    """A cheap, *incomplete* overlap test: the advertisement gate's specification.

    Returns ``False`` only when the two filters provably cannot both match
    any notification (because they place incompatible equality/set
    constraints on a shared attribute).  Returns ``True`` otherwise.
    :func:`~repro.filters.covering.filters_may_overlap` must return the
    verdict of this test on every pair of filters.
    """
    if isinstance(left, MatchNone) or isinstance(right, MatchNone):
        return False
    for name, left_constraint in left.constraint_items():
        right_constraint = right.constraint_for(name)
        if right_constraint is None:
            continue
        left_is_eq = isinstance(left_constraint, Equals)
        right_is_eq = isinstance(right_constraint, Equals)
        if left_is_eq and right_is_eq:
            if not right_constraint.matches(left_constraint.value):
                return False
        elif left_is_eq and isinstance(right_constraint, InSet):
            if not right_constraint.matches(left_constraint.value):
                return False
        elif isinstance(left_constraint, InSet):
            if right_is_eq:
                if not left_constraint.matches(right_constraint.value):
                    return False
            elif isinstance(right_constraint, InSet):
                small, large = left_constraint, right_constraint
                if len(small._by_key) > len(large._by_key):
                    small, large = large, small
                if not any(key in large._by_key for key in small._by_key):
                    return False
    return True


def advertised_via(table, neighbour, filter_):
    """Whether an advertisement row received from *neighbour* may overlap *filter_*."""
    return any(
        filters_overlap_hint(row.filter, filter_)
        for row in table.entries()
        if row.destination == neighbour
    )


def row_ids(rows):
    """Order-free identity of a list of rows: sorted ``(destination, seq)`` pairs."""
    return sorted((row.destination, row.seq) for row in rows)


def checked_match(plan, table, attributes):
    """The rows *plan* matches over *table*, once they equal the specification's."""
    rows = plan.match(attributes)
    assert row_ids(rows) == row_ids(matching_rows(table, attributes))
    return rows


def flat_gate(forwarding, neighbour, filter_):
    """``SubscriptionForwarding.may_forward``, unmemoised, over the advertisement rows."""
    broker = forwarding.broker
    if not broker.config.use_advertisements:
        return True
    return advertised_via(broker.advertisement_table, neighbour, filter_)


@contextmanager
def oracle_dispatch():
    """Answer every match and every advertisement gate in the process from the specification."""
    work = RawWork()
    production = (DispatchPlan.match, SubscriptionForwarding.may_forward)
    DispatchPlan.match = lambda plan, attributes: matching_rows(
        plan._subscription_table, attributes, work
    )
    SubscriptionForwarding.may_forward = flat_gate
    try:
        yield work
    finally:
        DispatchPlan.match, SubscriptionForwarding.may_forward = production
