"""Unit tests for per-attribute constraints."""

import pytest

from repro.filters.attributes import canonical_key
from repro.filters.constraints import (
    AnyValue,
    Between,
    Equals,
    Exists,
    GreaterEqual,
    GreaterThan,
    InSet,
    LessEqual,
    LessThan,
    NotEquals,
    Prefix,
    constraint_from_tuple,
)


class TestMatching:
    def test_equals_matches_same_value(self):
        assert Equals("parking").matches("parking")
        assert not Equals("parking").matches("fuel")

    def test_equals_is_type_aware(self):
        assert not Equals(1).matches("1")
        assert not Equals(True).matches(1)

    def test_not_equals(self):
        constraint = NotEquals("closed")
        assert constraint.matches("open")
        assert not constraint.matches("closed")

    def test_numeric_ordering(self):
        assert LessThan(3).matches(2.5)
        assert not LessThan(3).matches(3)
        assert LessEqual(3).matches(3)
        assert GreaterThan(3).matches(4)
        assert not GreaterThan(3).matches(3)
        assert GreaterEqual(3).matches(3)

    def test_string_ordering(self):
        assert GreaterEqual("compact").matches("suv")
        assert not GreaterEqual("compact").matches("bike")

    def test_ordering_rejects_incomparable_types(self):
        assert not LessThan(3).matches("two")
        assert not GreaterEqual("compact").matches(7)

    def test_between_inclusive_bounds(self):
        constraint = Between(1, 5)
        assert constraint.matches(1)
        assert constraint.matches(5)
        assert constraint.matches(3)
        assert not constraint.matches(0)
        assert not constraint.matches(6)

    def test_between_exclusive_bounds(self):
        constraint = Between(1, 5, low_inclusive=False, high_inclusive=False)
        assert not constraint.matches(1)
        assert not constraint.matches(5)
        assert constraint.matches(2)

    def test_between_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            Between(5, 1)

    def test_in_set(self):
        constraint = InSet(["a", "b"])
        assert constraint.matches("a")
        assert not constraint.matches("c")

    def test_in_set_requires_values(self):
        with pytest.raises(ValueError):
            InSet([])

    def test_in_set_key_is_sorted_once(self):
        """The key is the from-scratch value — operator plus the sorted
        canonical keys of the distinct members — and every call returns the
        tuple built at construction."""
        constraint = InSet(["b", "a", 3, 3.0, True, "b"])
        members = {canonical_key(value) for value in ("a", "b", 3, True)}
        assert constraint.key() == ("in", tuple(sorted(members)))
        assert constraint.key() is constraint.key()
        assert InSet(["a", True, 3.0, "b"]).key() == constraint.key()

    def test_in_set_union(self):
        union = InSet(["a"]).union(InSet(["b", "c"]))
        assert union.matches("a") and union.matches("c")

    def test_prefix(self):
        constraint = Prefix("Rebeca")
        assert constraint.matches("Rebeca Drive 100")
        assert not constraint.matches("Siena Street")
        assert not constraint.matches(42)

    def test_any_and_exists(self):
        assert AnyValue().matches("anything")
        assert AnyValue().matches_absent()
        assert Exists().matches(0)
        assert not Exists().matches_absent()


class TestCovering:
    def test_equals_covers_equal(self):
        assert Equals(5).covers(Equals(5))
        assert not Equals(5).covers(Equals(6))

    def test_any_covers_everything(self):
        for other in (Equals(1), LessThan(2), InSet(["x"]), Prefix("p")):
            assert AnyValue().covers(other)

    def test_exists_covers_value_constraints_but_not_any(self):
        assert Exists().covers(Equals(1))
        assert not Exists().covers(AnyValue())

    def test_less_than_covering(self):
        assert LessThan(10).covers(LessThan(5))
        assert LessThan(10).covers(LessEqual(9))
        assert not LessThan(10).covers(LessEqual(10))
        assert LessThan(10).covers(Equals(3))
        assert not LessThan(10).covers(Equals(10))

    def test_greater_than_covering(self):
        assert GreaterThan(1).covers(GreaterThan(2))
        assert GreaterEqual(1).covers(GreaterThan(1))
        assert not GreaterThan(1).covers(GreaterEqual(1))

    def test_interval_covering(self):
        assert Between(0, 10).covers(Between(2, 5))
        assert Between(0, 10).covers(Equals(10))
        assert not Between(0, 10).covers(Between(5, 11))
        assert Between(0, 10, high_inclusive=False).covers(Between(0, 9))
        assert not Between(0, 10, high_inclusive=False).covers(Between(0, 10))

    def test_in_set_covering(self):
        assert InSet(["a", "b", "c"]).covers(InSet(["a", "c"]))
        assert InSet(["a", "b"]).covers(Equals("a"))
        assert not InSet(["a", "b"]).covers(Equals("z"))
        assert not InSet(["a"]).covers(InSet(["a", "b"]))

    def test_prefix_covering(self):
        assert Prefix("Re").covers(Prefix("Rebeca"))
        assert Prefix("Re").covers(Equals("Rebeca Drive"))
        assert not Prefix("Rebeca").covers(Prefix("Re"))

    def test_bounds_cover_sets(self):
        assert LessThan(10).covers(InSet([1, 2, 3]))
        assert not LessThan(10).covers(InSet([1, 20]))

    def test_covering_soundness_spot_checks(self):
        """Whenever covers() says yes, all matching values of the covered
        constraint must match the covering one."""
        pairs = [
            (LessEqual(5), LessThan(5)),
            (Between(0, 10), InSet([0, 5, 10])),
            (GreaterEqual("b"), Equals("c")),
            (InSet(["x", "y"]), Equals("y")),
        ]
        samples = ["a", "b", "c", "x", "y", 0, 1, 4, 5, 9, 10, 11, -3]
        for covering, covered in pairs:
            assert covering.covers(covered)
            for value in samples:
                if covered.matches(value):
                    assert covering.matches(value)


class TestConstruction:
    def test_from_bare_value(self):
        assert constraint_from_tuple("parking") == Equals("parking")
        assert constraint_from_tuple(5) == Equals(5)

    def test_from_operator_tuples(self):
        assert constraint_from_tuple(("<", 3)) == LessThan(3)
        assert constraint_from_tuple((">=", "compact")) == GreaterEqual("compact")
        assert constraint_from_tuple(("in", ["a", "b"])) == InSet(["a", "b"])
        assert constraint_from_tuple(("between", 1, 5)) == Between(1, 5)
        assert constraint_from_tuple(("prefix", "Re")) == Prefix("Re")

    def test_passthrough_of_constraints(self):
        original = LessThan(3)
        assert constraint_from_tuple(original) is original

    def test_equality_and_hash(self):
        assert Equals(3) == Equals(3)
        assert hash(Equals(3)) == hash(Equals(3))
        assert Equals(3) != Equals(4)
        assert Equals(3) != LessThan(3)
        assert len({Equals(3), Equals(3), Equals(4)}) == 2
