"""Property: the dispatch plan is the brute-force oracle, under any churn.

A random interleaving of every ``RoutingTable`` mutation — ``add``,
``remove`` (one subject or the whole row), ``remove_subject``,
``remove_destination``, ``clear``, ``restore_row`` — and of forced plan
rebuilds is applied to a subscription table and an advertisement table
watched by one ``DispatchPlan``.  Between the mutations, notifications
and gate queries (generated ones, and a fixed set of probes after every
mutation) are answered by the plan and by ``tests/oracles/matching.py``;
the answers must be the same rows and the same verdicts.  Filters cover ``MatchNone`` / ``MatchAll``, equality,
``in``, one-sided comparisons, ``between``, ``!=``, prefixes and presence
tests; notifications leave attributes out and carry values no constraint
can compare (a list, ``None``).

The oracle is *undefined* where ``Filter.matches`` refuses to compare
such a value (it raises ``AttributeTypeError``, a ``TypeError``).  There
the plan may refuse the whole notification the same way, or answer — and
then it must return exactly the rows the oracle defines as matching.
"""

from hypothesis import given, settings, strategies as st

from repro.dispatch.plan import DispatchPlan
from repro.filters.filter import Filter, MatchAll
from repro.routing.table import RoutingTable

from tests.dispatch.test_predicate_index import (
    ATTRIBUTES,
    NUMBER_VALUES,
    STRING_VALUES,
    any_filters,
    plain_filters,
)
from tests.oracles.matching import advertised_via, matching_rows, row_ids

DESTINATIONS = ["N1", "N2", "c1"]
SUBJECTS = ["s0", "s1", "s2", "s3"]
UNCOMPARABLE = [["a", "list"], None]
#: Gate queries asked after every mutation (besides the generated ones).
PROBES = [
    Filter({"service": "parking"}),
    Filter({"service": "fuel", "location": ("in", ["a", "b"])}),
    Filter({"location": "c", "cost": ("<", 3)}),
    MatchAll(),
]


def notifications():
    values = st.one_of(
        st.sampled_from(STRING_VALUES),
        st.sampled_from(NUMBER_VALUES),
        st.booleans(),
        st.sampled_from(UNCOMPARABLE),
    )
    return st.dictionaries(st.sampled_from(ATTRIBUTES), values, max_size=4)


def operations():
    destination = st.sampled_from(DESTINATIONS)
    subject = st.sampled_from(SUBJECTS)
    position = st.integers(min_value=0, max_value=31)
    return st.one_of(
        st.tuples(st.just("add"), any_filters(), destination, subject),
        st.tuples(st.just("add"), any_filters(), destination, subject),
        st.tuples(st.just("remove"), position, st.booleans()),
        st.tuples(st.just("remove_subject"), subject),
        st.tuples(st.just("remove_destination"), destination),
        st.tuples(st.just("clear")),
        st.tuples(st.just("restore_row"), any_filters(), destination, st.sets(subject, min_size=1)),
        st.tuples(st.just("invalidate")),
        st.tuples(st.just("notify"), notifications()),
        st.tuples(st.just("notify"), notifications()),
        st.tuples(st.just("gate"), plain_filters()),
    )


def mutate(table, operation):
    """Apply one mutating *operation* to *table*."""
    kind = operation[0]
    if kind == "add":
        table.add(*operation[1:])
    elif kind == "remove":
        rows = table.entries()
        if rows:
            row = rows[operation[1] % len(rows)]
            whole_row = operation[2]
            table.remove(row.filter, row.destination, None if whole_row else min(row.subjects))
    elif kind == "remove_subject":
        table.remove_subject(operation[1])
    elif kind == "remove_destination":
        table.remove_destination(operation[1])
    elif kind == "clear":
        table.clear()
    elif kind == "restore_row":
        _, filter_, destination, subjects = operation
        if not table.has_entry(filter_, destination):
            table.restore_row(filter_, destination, sorted(subjects), table.row_seq + 2)


def defined_matches(table, attributes):
    """The rows the oracle defines as matching, skipping those it cannot decide."""
    rows = []
    for row in table.entries():
        try:
            if row.filter.matches(attributes):
                rows.append(row)
        except TypeError:
            pass
    return rows


def check_gate(plan, table, filters):
    for neighbour in DESTINATIONS:
        for filter_ in filters:
            assert plan.advertised_via(neighbour, filter_) == advertised_via(
                table, neighbour, filter_
            ), (neighbour, filter_)


def check_notification(plan, table, attributes):
    comparable = not any(value in UNCOMPARABLE for value in attributes.values())
    try:
        matched = plan.match(attributes)
    except TypeError:
        assert not comparable, "the plan refused a well-formed notification"
        return
    if comparable:
        assert row_ids(matched) == row_ids(matching_rows(table, attributes))
    else:
        assert row_ids(matched) == row_ids(defined_matches(table, attributes))
    # Rows are handed out by reference, never copied.
    assert all(row is table.find_entry(row.filter, row.destination) for row in matched)


@settings(max_examples=250, deadline=None)
@given(schedule=st.lists(operations(), min_size=1, max_size=40), early_use=st.booleans())
def test_plan_equals_oracle_under_arbitrary_table_churn(schedule, early_use):
    subscriptions = RoutingTable()
    advertisements = RoutingTable()
    plan = DispatchPlan(subscriptions, advertisements)
    if early_use:
        # Build both sides now, so everything below arrives as row deltas;
        # otherwise the first query builds them from one table scan.
        plan.match({})
        plan.advertised_via("N1", Filter({"service": "parking"}))
    for operation in schedule:
        kind = operation[0]
        if kind == "notify":
            check_notification(plan, subscriptions, operation[1])
        elif kind == "gate":
            check_gate(plan, advertisements, [operation[1]])
        elif kind == "invalidate":
            plan.invalidate()
        else:
            mutate(subscriptions, operation)
            mutate(advertisements, operation)
            check_gate(plan, advertisements, PROBES)
    # A final sweep: whatever the schedule left behind still matches.
    for attributes in ({}, {"service": "parking", "cost": 2}, {"location": "a", "floor": 1}):
        check_notification(plan, subscriptions, attributes)
