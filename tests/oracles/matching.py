"""Brute-force specification of the dispatch plane.

``repro.dispatch`` is the only matcher the routing tables have; what it
must compute is written down here in the most obvious way possible, over
nothing but the tables' rows:

* a notification matches exactly the rows whose filter accepts it;
* a neighbour passes the advertisement gate for a filter exactly when
  one of its advertisement rows may overlap that filter.

:func:`oracle_dispatch` swaps the specification in for every
:class:`~repro.dispatch.plan.DispatchPlan` in the process, so whole
networks can be run on it and compared with the production path; it
yields the :class:`~tests.oracles.counting.RawWork` the specification
counted its constraint evaluations in.
"""

from contextlib import contextmanager

from repro.dispatch.plan import DispatchPlan
from repro.filters.covering import filters_overlap_hint

from tests.oracles.counting import RawWork


def matching_rows(table, attributes, work=None):
    """Every row of *table* whose filter matches *attributes*.

    The constraint evaluations are counted in *work*, when given.
    """
    matches = (RawWork() if work is None else work).matches
    return [row for row in table.entries() if matches(row.filter, attributes)]


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


@contextmanager
def oracle_dispatch():
    """Answer every plan query in the process from the specification."""
    work = RawWork()
    production = (DispatchPlan.match, DispatchPlan.advertised_via)
    DispatchPlan.match = lambda plan, attributes: matching_rows(
        plan._subscription_table, attributes, work
    )
    DispatchPlan.advertised_via = lambda plan, neighbour, filter_: advertised_via(
        plan._advertisement_table, neighbour, filter_
    )
    try:
        yield work
    finally:
        DispatchPlan.match, DispatchPlan.advertised_via = production
