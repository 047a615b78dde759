"""The counting engine must agree with brute-force ``Filter.matches``.

Unit tests pin the index structures (equality buckets, bisected
comparison arrays, interval lists, residual scans and predicate masks);
hypothesis properties check exhaustively that ``PredicateIndex`` +
``BitsetMatcher`` return exactly the brute-force match set over
generated filters and notifications — including ``MatchNone``,
``MatchAll`` and attribute-absence edge cases.  The index holds each
distinct filter once; :class:`Filters` feeds it the way the dispatch
plan does, whose rows are the reference count (pinned at plan level in
``TestRefcountingAndRemoval``).
"""

import random

from hypothesis import given, settings, strategies as st

from repro.dispatch.counting import BitsetMatcher
from repro.dispatch.plan import DispatchPlan
from repro.dispatch.predicate_index import PredicateIndex
from repro.filters.constraints import AnyValue, Between, Exists, NotEquals, Prefix
from repro.filters.filter import Filter, MatchAll, MatchNone
from repro.routing.table import RoutingTable


def F(**constraints):
    return Filter(constraints)


class Filters:
    """A ``PredicateIndex`` fed the way the dispatch plan feeds it.

    Each distinct filter is indexed once and removed by fid with its last
    reference; ``MatchNone`` is never indexed.
    """

    def __init__(self, *filters):
        self.index = PredicateIndex()
        self.references = {}  # filter key -> [fid, references]
        for filter_ in filters:
            self.add(filter_)

    def add(self, filter_):
        if isinstance(filter_, MatchNone):
            return
        entry = self.references.get(filter_.key())
        if entry is None:
            self.references[filter_.key()] = [self.index.add(filter_), 1]
        else:
            entry[1] += 1

    def remove(self, filter_):
        entry = self.references.get(filter_.key())
        if entry is None:
            return
        entry[1] -= 1
        if not entry[1]:
            del self.references[filter_.key()]
            self.index.remove(entry[0])


def make_matcher(*filters):
    index = Filters(*filters).index
    return index, BitsetMatcher(index)


def match_keys(matcher, attributes):
    return {filter_.key() for filter_ in matcher.match(attributes)}


class TestOperatorClasses:
    def test_equality_bucket(self):
        _, matcher = make_matcher(F(service="parking"), F(service="fuel"))
        assert match_keys(matcher, {"service": "parking"}) == {F(service="parking").key()}
        assert match_keys(matcher, {"service": "bus"}) == set()

    def test_in_set_buckets_one_per_value(self):
        index, matcher = make_matcher(F(location=("in", ["a", "b"])))
        assert index.predicate_count == 1
        for value in ("a", "b"):
            assert match_keys(matcher, {"location": value})
        assert not match_keys(matcher, {"location": "c"})

    def test_comparisons_are_bisected_not_evaluated(self):
        filters = [F(cost=(op, 5)) for op in ("<", "<=", ">", ">=")]
        _, matcher = make_matcher(*filters)
        for value, expected_ops in [(4, {"lt", "le"}), (5, {"le", "ge"}), (6, {"gt", "ge"})]:
            matched = match_keys(matcher, {"cost": value})
            expected = {f.key() for f in filters if f.matches({"cost": value})}
            assert matched == expected
            assert {key[0][1][0] for key in matched} == expected_ops

    def test_string_comparisons_do_not_mix_with_numbers(self):
        _, matcher = make_matcher(F(name=(">=", "m")), F(cost=("<", 3)))
        assert match_keys(matcher, {"name": "z"}) == {F(name=(">=", "m")).key()}
        assert match_keys(matcher, {"name": 7}) == set()

    def test_between_degenerate_uses_equality_bucket(self):
        closed = Filter({"a": Between(5, 5)})
        half_open = Filter({"a": Between(5, 5, low_inclusive=False)})
        _, matcher = make_matcher(closed, half_open)
        assert match_keys(matcher, {"a": 5}) == {closed.key()}
        assert match_keys(matcher, {"a": 5.0}) == {closed.key()}

    def test_between_interval_list(self):
        inner = Filter({"cost": Between(2, 4)})
        outer = Filter({"cost": Between(0, 10, high_inclusive=False)})
        _, matcher = make_matcher(inner, outer)
        assert match_keys(matcher, {"cost": 3}) == {inner.key(), outer.key()}
        assert match_keys(matcher, {"cost": 10}) == set()
        assert match_keys(matcher, {"cost": 0}) == {outer.key()}

    def test_residual_constraints(self):
        ne = Filter({"service": NotEquals("parking")})
        prefix = Filter({"service": Prefix("par")})
        exists = Filter({"service": Exists()})
        _, matcher = make_matcher(ne, prefix, exists)
        assert match_keys(matcher, {"service": "parking"}) == {prefix.key(), exists.key()}
        assert match_keys(matcher, {"service": "bus"}) == {ne.key(), exists.key()}
        assert match_keys(matcher, {}) == set()


class TestEdgeCases:
    def test_absent_attribute_fails_presence_constraints(self):
        _, matcher = make_matcher(F(service="parking", cost=("<", 3)))
        assert not match_keys(matcher, {"service": "parking"})
        assert match_keys(matcher, {"service": "parking", "cost": 2})

    def test_any_value_constraint_is_not_a_predicate(self):
        filter_ = Filter({"service": "parking", "note": AnyValue()})
        index, matcher = make_matcher(filter_)
        assert index.predicate_count == 1  # only the equality counts
        assert match_keys(matcher, {"service": "parking"}) == {filter_.key()}
        assert match_keys(matcher, {"service": "parking", "note": 42}) == {filter_.key()}

    def test_match_all_and_empty_filter_always_match(self):
        _, matcher = make_matcher(MatchAll(), F(service="parking"))
        assert len(matcher.match({})) == 1
        assert len(matcher.match({"service": "parking"})) == 2

    def test_match_none_is_rejected(self):
        # The plan keeps a MatchNone row out of its index: it can never match.
        table = RoutingTable()
        plan = DispatchPlan(table, RoutingTable())
        table.add(MatchNone(), "N1", "s1")
        assert plan.match({"a": 1}) == ()
        assert len(plan.index) == 0

    def test_opaque_subclass_falls_back_to_whole_filter_evaluation(self):
        class Oddball(Filter):
            __slots__ = ()

            def matches(self, attributes):
                return attributes.get("cost", 0) % 2 == 1

        odd = Oddball({"service": "parking"})
        index, matcher = make_matcher(odd)
        assert index.opaque_fids
        assert match_keys(matcher, {"cost": 3}) == {odd.key()}
        assert match_keys(matcher, {"cost": 2}) == set()

    def test_bool_values_never_hit_numeric_structures(self):
        _, matcher = make_matcher(F(flag=True), F(flag=1), F(cost=("<", 3)))
        assert match_keys(matcher, {"flag": True}) == {F(flag=True).key()}
        assert match_keys(matcher, {"flag": 1}) == {F(flag=1).key()}


class TestRefcountingAndRemoval:
    def test_shared_predicates_are_interned_once(self):
        index, _ = make_matcher(
            F(service="parking", location="a"), F(service="parking", location="b")
        )
        assert index.predicate_count == 3  # one shared eq + two locations

    def test_refcounted_add_remove(self):
        # The plan's rows are the reference count: a filter stays indexed,
        # once, while any of its rows lives.
        table = RoutingTable()
        plan = DispatchPlan(table, RoutingTable())
        plan.rebuild()
        filter_ = F(service="parking")
        table.add(filter_, "N1", "s1")
        table.add(filter_, "N2", "s2")
        assert len(plan.index) == 1
        table.remove(filter_, "N1")  # still referenced
        assert len(plan.index) == 1
        assert [row.destination for row in plan.match({"service": "parking"})] == ["N2"]
        table.remove(filter_, "N2")
        assert len(plan.index) == 0
        assert plan.index.predicate_count == 0
        assert plan.match({"service": "parking"}) == ()

    def test_structures_are_empty_after_full_removal(self):
        filters = [
            F(service="parking", cost=("<", 3)),
            F(location=("in", ["a", "b"]), cost=("between", 1, 5)),
            F(note=("!=", "x")),
            MatchAll(),
        ]
        index = PredicateIndex()
        fids = [index.add(filter_) for filter_ in filters]
        for fid in fids:
            index.remove(fid)
        assert len(index) == 0 and index.predicate_count == 0
        assert not any(index.pid_masks)
        assert index._eq == {} and index._cmp == {}
        assert index._interval_lows == {} and index._residual == {}

    def test_randomized_add_remove_matches_brute_force(self):
        rng = random.Random(9)
        pool = [
            F(service=rng.choice(["parking", "fuel"])),
            F(cost=(rng.choice(["<", "<=", ">", ">="]), rng.randint(0, 5))),
            F(location=("in", ["a", "b", "c"][: rng.randint(1, 3)])),
            F(cost=("between", 1, 4), service="parking"),
            F(note=("!=", "x")),
            MatchAll(),
        ]
        population = Filters()
        matcher = BitsetMatcher(population.index)
        live = []
        for step in range(300):
            if live and rng.random() < 0.45:
                filter_ = live.pop(rng.randrange(len(live)))
                population.remove(filter_)
            else:
                filter_ = rng.choice(pool)
                population.add(filter_)
                live.append(filter_)
            notification = {
                "service": rng.choice(["parking", "fuel", "bus"]),
                "cost": rng.randint(0, 6),
                "location": rng.choice(["a", "b", "c", "d"]),
            }
            expected = {f.key() for f in live if f.matches(notification)}
            assert match_keys(matcher, notification) == expected


# ---------------------------------------------------------------------------
# Hypothesis properties: index == brute force
# ---------------------------------------------------------------------------

ATTRIBUTES = ["service", "location", "cost", "floor"]
STRING_VALUES = ["parking", "fuel", "a", "b", "c"]
NUMBER_VALUES = [0, 1, 2, 3, 5, 10]


def constraint_specs():
    return st.one_of(
        st.sampled_from(STRING_VALUES),
        st.sampled_from(NUMBER_VALUES),
        st.sampled_from([True, False]),
        st.tuples(st.sampled_from(["<", "<=", ">", ">="]), st.sampled_from(NUMBER_VALUES)),
        st.tuples(st.sampled_from(["<", "<=", ">", ">="]), st.sampled_from(STRING_VALUES)),
        st.tuples(st.just("!=",), st.sampled_from(STRING_VALUES + NUMBER_VALUES)),
        st.tuples(st.just("prefix"), st.sampled_from(["p", "par", "fu", ""])),
        st.just(("exists",)),
        st.just(("any",)),
        st.tuples(st.just("in"), st.lists(st.sampled_from(STRING_VALUES), min_size=1, max_size=3)),
        st.tuples(
            st.just("between"),
            st.sampled_from(NUMBER_VALUES),
            st.sampled_from(NUMBER_VALUES),
        ).filter(lambda spec: spec[1] <= spec[2]),
    )


def plain_filters():
    return st.dictionaries(
        st.sampled_from(ATTRIBUTES), constraint_specs(), min_size=0, max_size=3
    ).map(Filter)


def any_filters():
    return st.one_of(plain_filters(), st.just(MatchNone()), st.just(MatchAll()))


def notifications():
    return st.dictionaries(
        st.sampled_from(ATTRIBUTES),
        st.one_of(
            st.sampled_from(STRING_VALUES),
            st.sampled_from(NUMBER_VALUES),
            st.sampled_from([True, False]),
        ),
        min_size=0,
        max_size=4,
    )


@settings(max_examples=300, deadline=None)
@given(filters=st.lists(any_filters(), max_size=8), notification=notifications())
def test_counting_match_equals_brute_force(filters, notification):
    _, matcher = make_matcher(*filters)
    expected = {
        f.key() for f in filters if not isinstance(f, MatchNone) and f.matches(notification)
    }
    assert {f.key() for f in matcher.match(notification)} == expected


@settings(max_examples=150, deadline=None)
@given(
    filters=st.lists(any_filters(), min_size=2, max_size=8),
    removals=st.lists(st.integers(min_value=0, max_value=7), max_size=6),
    notification=notifications(),
)
def test_counting_match_survives_removals(filters, removals, notification):
    population = Filters(*filters)
    live = list(filters)
    for position in removals:
        if not live:
            break
        filter_ = live.pop(position % len(live))
        population.remove(filter_)
    matcher = BitsetMatcher(population.index)
    expected = {
        f.key() for f in live if not isinstance(f, MatchNone) and f.matches(notification)
    }
    assert {f.key() for f in matcher.match(notification)} == expected


class TestArity1FastPath:
    """A filter with a single predicate matches as soon as that predicate
    fires — on the bit planes with no special case — and is reported once."""

    def test_arity1_filter_matches_at_most_once_per_pass(self):
        wide = F(location=("in", ["a", "b", "c"]))        # one InSet predicate
        index, matcher = make_matcher(wide)
        matched = matcher.match({"location": "b"})
        assert matched == [wide]

    def test_fast_path_agrees_with_brute_force_on_mixed_arities(self):
        rng = random.Random(11)
        filters = []
        for index_ in range(30):
            constraints = {"service": rng.choice(["a", "b", "c"])}
            if index_ % 3 == 0:
                constraints["cost"] = ("<", rng.randint(1, 9))
            if index_ % 5 == 0:
                constraints["floor"] = rng.randint(0, 4)
            filters.append(Filter(constraints))
        index, matcher = make_matcher(*filters)
        for _ in range(50):
            attributes = {"service": rng.choice(["a", "b", "c", "d"])}
            if rng.random() < 0.7:
                attributes["cost"] = rng.randint(0, 9)
            if rng.random() < 0.5:
                attributes["floor"] = rng.randint(0, 5)
            # Structurally identical filters are indexed once, so the
            # brute-force expectation is deduplicated by filter key.
            expected = {f.key(): f for f in filters if f.matches(attributes)}
            got = matcher.match(attributes)
            assert sorted(map(repr, got)) == sorted(map(repr, expected.values()))
