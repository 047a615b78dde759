"""Property: the dispatch plan is the brute-force oracle, under any churn.

A random interleaving of every ``RoutingTable`` mutation — ``add``,
``remove`` (one subject or the whole row), ``remove_subject``,
``remove_destination``, ``restore_row`` — and of forced plan rebuilds is
applied to a subscription table watched by one ``DispatchPlan``.  Between
the mutations, notifications are answered by the plan and by
``tests/oracles/matching.py``; the answers must be the same rows.
Filters cover ``MatchNone`` / ``MatchAll``, equality, ``in``, one-sided
comparisons, ``between``, ``!=``, prefixes and presence tests;
notifications leave attributes out and carry values no constraint can
compare (a list, ``None``).  The same mutations drive the advertisement
gate in ``tests/broker/test_advert_gate.py``.

The oracle is *undefined* where ``Filter.matches`` refuses to compare
such a value (it raises ``AttributeTypeError``, a ``TypeError``).  There
the plan may refuse the whole notification the same way, or answer — and
then it must return exactly the rows the oracle defines as matching.

The plan remembers its last match.  A second property re-asks the last
probe after every mutation, back to back with look-alike probes
(``True``, ``1``, ``1.0`` and a list), so a stale memo fails it.
"""

from hypothesis import given, settings, strategies as st

from repro.dispatch.plan import DispatchPlan
from repro.filters.filter import Filter, MatchAll, MatchNone
from repro.routing.table import RoutingTable

from tests.dispatch.test_predicate_index import (
    ATTRIBUTES,
    NUMBER_VALUES,
    STRING_VALUES,
    any_filters,
)
from tests.oracles.matching import matching_rows, row_ids

DESTINATIONS = ["N1", "N2", "c1"]
SUBJECTS = ["s0", "s1", "s2", "s3"]
UNCOMPARABLE = [["a", "list"], None]


def notifications():
    values = st.one_of(
        st.sampled_from(STRING_VALUES),
        st.sampled_from(NUMBER_VALUES),
        st.booleans(),
        st.sampled_from(UNCOMPARABLE),
    )
    return st.dictionaries(st.sampled_from(ATTRIBUTES), values, max_size=4)


def mutations():
    """Every ``RoutingTable`` mutation, as an operation :func:`mutate` applies."""
    destination = st.sampled_from(DESTINATIONS)
    subject = st.sampled_from(SUBJECTS)
    position = st.integers(min_value=0, max_value=31)
    return st.one_of(
        st.tuples(st.just("add"), any_filters(), destination, subject),
        st.tuples(st.just("add"), any_filters(), destination, subject),
        st.tuples(st.just("remove"), position, st.booleans()),
        st.tuples(st.just("remove_subject"), subject),
        st.tuples(st.just("remove_destination"), destination),
        st.tuples(st.just("restore_row"), any_filters(), destination, st.sets(subject, min_size=1)),
    )


def operations():
    return st.one_of(
        mutations(),
        st.tuples(st.just("rebuild")),
        st.tuples(st.just("notify"), notifications()),
        st.tuples(st.just("notify"), notifications()),
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
    elif kind == "restore_row":
        _, filter_, destination, subjects = operation
        if table.find_entry(filter_, destination) is None:
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
    plan = DispatchPlan(subscriptions)
    if early_use:
        # Build the plan now, so everything below arrives as row deltas;
        # otherwise the first query builds it from one table scan.
        plan.match({})
    for operation in schedule:
        kind = operation[0]
        if kind == "notify":
            check_notification(plan, subscriptions, operation[1])
        elif kind == "rebuild":
            plan.rebuild()
        else:
            mutate(subscriptions, operation)
    # A final sweep: whatever the schedule left behind still matches.
    for attributes in ({}, {"service": "parking", "cost": 2}, {"location": "a", "floor": 1}):
        check_notification(plan, subscriptions, attributes)


#: Probes the last-match memo must keep apart: ``True == 1 == 1.0``, but
#: only ``1`` and ``1.0`` are the same attribute value; no notification
#: carries a list.
LOOKALIKES = [
    {"cost": True},
    {"cost": 1},
    {"cost": 1.0},
    {"cost": ["a", "list"]},
    {"service": "parking", "cost": 1},
]
#: Filters on which the look-alikes match differently.
TELLING_FILTERS = [
    Filter({"cost": True}),
    Filter({"cost": 1}),
    Filter({"cost": ("<", 2)}),
    Filter({"cost": ("exists",)}),
    Filter({"service": "parking"}),
]


def memo_operations():
    filters = st.one_of(st.sampled_from(TELLING_FILTERS), any_filters())
    destination = st.sampled_from(DESTINATIONS)
    subject = st.sampled_from(SUBJECTS)
    return st.one_of(
        st.tuples(st.just("add"), filters, destination, subject),
        st.tuples(st.just("add"), filters, destination, subject),
        st.tuples(st.just("remove"), st.integers(min_value=0, max_value=31), st.booleans()),
        st.tuples(st.just("remove_destination"), destination),
        st.tuples(st.just("probe"), st.lists(st.sampled_from(LOOKALIKES), min_size=1, max_size=4)),
    )


@settings(max_examples=300, deadline=None)
@given(schedule=st.lists(memo_operations(), min_size=1, max_size=30))
def test_repeated_probes_never_see_a_stale_match(schedule):
    subscriptions = RoutingTable()
    plan = DispatchPlan(subscriptions)
    last = LOOKALIKES[-1]
    for operation in schedule:
        if operation[0] == "probe":
            for attributes in operation[1]:
                # Twice in a row: the second answer is the remembered one.
                check_notification(plan, subscriptions, attributes)
                check_notification(plan, subscriptions, attributes)
                last = attributes
        else:
            mutate(subscriptions, operation)
            # The probe the plan may remember, right after the change.
            check_notification(plan, subscriptions, last)


class _TagCount(Filter):
    """Opaque: matches when the ``tags`` value holds more than one item."""

    __slots__ = ()

    def matches(self, attributes):
        return len(attributes.get("tags", ())) > 1


def test_a_probe_with_a_mutable_value_is_not_remembered():
    subscriptions = RoutingTable()
    plan = DispatchPlan(subscriptions)
    subscriptions.add(_TagCount({"service": "parking"}), "c1", "s0")
    tags = ["a"]
    attributes = {"service": "parking", "tags": tags}
    assert plan.match(attributes) == ()
    tags.append("b")
    assert row_ids(plan.match(attributes)) == row_ids(subscriptions.entries())


# ---------------------------------------------------------------------------
# The compact plane: each fact stored once, and nothing left behind
# ---------------------------------------------------------------------------


def every_constraint_kind():
    """One constraint of each kind the index places differently."""
    return st.one_of(
        st.sampled_from(STRING_VALUES),  # Equals
        st.tuples(st.just("in"), st.lists(st.sampled_from(STRING_VALUES), min_size=1, max_size=3)),
        st.sampled_from(NUMBER_VALUES).map(lambda value: ("between", value, value)),
        st.tuples(
            st.just("between"),
            st.sampled_from(NUMBER_VALUES),
            st.sampled_from(NUMBER_VALUES),
        ).filter(lambda spec: spec[1] < spec[2]),
        st.tuples(st.sampled_from(["<", "<=", ">", ">="]), st.sampled_from(NUMBER_VALUES)),
        st.tuples(st.sampled_from(["!=", "prefix"]), st.sampled_from(STRING_VALUES)),  # residual
        st.just(("any",)),  # no predicate at all
    )


def every_filter_kind():
    constraints = st.dictionaries(st.sampled_from(ATTRIBUTES), every_constraint_kind(), max_size=3)
    return st.one_of(
        constraints.map(Filter),
        constraints.map(Filter),
        constraints.map(_TagCount),  # opaque
        st.just(MatchAll()),
        st.just(MatchNone()),
    )


def compact_operations():
    destination = st.sampled_from(DESTINATIONS)
    return st.one_of(
        st.tuples(st.just("add"), every_filter_kind(), destination, st.sampled_from(SUBJECTS)),
        st.tuples(st.just("add"), every_filter_kind(), destination, st.sampled_from(SUBJECTS)),
        st.tuples(st.just("remove"), st.integers(min_value=0, max_value=31), st.booleans()),
        st.tuples(st.just("rebuild")),
        st.tuples(st.just("notify"), notifications()),
    )


def placed_pids(index):
    """Every pid the index's structures hold, with repeats (one per InSet member)."""
    pids = [pid for bucket in index._eq.values() for pid in bucket]
    pids += [pid for array in index._cmp.values() for pid in array.pids]
    pids += [pid for entries in index._interval_entries.values() for pid, _ in entries]
    pids += [pid for scans in index._residual.values() for pid, _ in scans]
    return pids


def check_compact(plan, table):
    """Each fact once: masks, predicates and row tuples equal a from-scratch derivation."""
    index = plan.index
    live = [fid for fid, filter_ in enumerate(index.fid_filter) if filter_ is not None]
    masks = [0] * len(index.pid_masks)
    for fid in live:
        if fid in index.opaque_fids:
            continue
        for name, constraint in index.fid_filter[fid].constraint_items():
            if not constraint.matches_absent():
                masks[index._pids[(name, constraint.key())]] |= 1 << fid
    assert index.pid_masks == masks
    live_pids = {pid for pid, mask in enumerate(masks) if mask}
    assert set(index._pids.values()) == live_pids
    assert set(placed_pids(index)) == live_pids
    grouped = {}
    for row in table.entries():
        if not isinstance(row.filter, MatchNone):
            grouped.setdefault(row.filter.key(), []).append(row)
    assert {index.fid_filter[fid].key(): list(plan.fid_rows[fid]) for fid in live} == grouped
    assert not any(plan.fid_rows[fid] for fid in range(len(plan.fid_rows)) if fid not in live)


@settings(max_examples=300, deadline=None)
@given(schedule=st.lists(compact_operations(), min_size=1, max_size=40))
def test_the_compact_plane_stores_each_fact_once(schedule):
    subscriptions = RoutingTable()
    plan = DispatchPlan(subscriptions)
    for operation in schedule:
        if operation[0] == "rebuild":
            plan.rebuild()
        elif operation[0] == "notify":
            try:
                plan.match(operation[1])
            except TypeError:
                pass  # a value no constraint can compare; see check_notification
        else:
            mutate(subscriptions, operation)
        if plan.valid:
            check_compact(plan, subscriptions)
    plan.match({})  # built, so the removals below arrive as row deltas
    check_compact(plan, subscriptions)
    for row in subscriptions.entries():
        subscriptions.remove(row.filter, row.destination)
    index = plan.index
    assert index._eq == {} and index._cmp == {} and index._residual == {}
    assert index._interval_lows == {} and index._interval_entries == {}
    assert index._pids == {} and index._fids == {} and not index.opaque_fids
    assert not any(index.pid_masks) and not any(plan.fid_rows)
