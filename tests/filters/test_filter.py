"""Unit tests for conjunctive filters."""

import pytest

from repro.filters.constraints import Equals, GreaterEqual, InSet, LessThan
from repro.filters.filter import Filter, MatchAll, MatchNone, filter_from_template


class TestMatching:
    def test_paper_example_subscription(self):
        """The subscription example of Section 2.1 matches as described."""
        subscription = Filter(
            {
                "service": "parking",
                "location": "100 Rebeca Drive",
                "cost": ("<", 3),
                "car-type": (">=", "compact"),
            }
        )
        notification = {
            "service": "parking",
            "location": "100 Rebeca Drive",
            "cost": 2,
            "car-type": "compact",
        }
        assert subscription.matches(notification)
        assert not subscription.matches({**notification, "cost": 3})
        assert not subscription.matches({**notification, "service": "fuel"})

    def test_unconstrained_attributes_are_ignored(self):
        assert Filter({"a": 1}).matches({"a": 1, "b": "whatever"})

    def test_missing_constrained_attribute_fails(self):
        assert not Filter({"a": 1}).matches({"b": 1})

    def test_empty_filter_matches_everything(self):
        assert Filter({}).matches({"x": 1})
        assert Filter({}).matches({})

    def test_match_all_and_match_none(self):
        assert MatchAll().matches({"anything": True})
        assert not MatchNone().matches({"anything": True})
        assert not MatchNone().matches({})

    def test_template_helper(self):
        filter_ = filter_from_template({"service": "parking", "cost": ("<", 3)})
        assert filter_.matches({"service": "parking", "cost": 1})


class TestConstructionAndIdentity:
    def test_rejects_empty_attribute_names(self):
        with pytest.raises(ValueError):
            Filter({"": 1})

    def test_kwargs_construction(self):
        assert Filter(service="parking").matches({"service": "parking"})

    def test_equality_is_structural(self):
        left = Filter({"a": 1, "b": ("<", 3)})
        right = Filter({"b": LessThan(3), "a": Equals(1)})
        assert left == right
        assert hash(left) == hash(right)

    def test_different_filters_are_unequal(self):
        assert Filter({"a": 1}) != Filter({"a": 2})
        assert Filter({"a": 1}) != Filter({"b": 1})

    def test_match_none_not_equal_to_empty(self):
        assert MatchNone() != Filter({})
        assert MatchAll() == Filter({})

    def test_with_constraint_returns_new_filter(self):
        base = Filter({"a": 1})
        updated = base.with_constraint("b", InSet(["x"]))
        assert "b" not in dict(base.constraints)
        assert updated.matches({"a": 1, "b": "x"})
        assert not updated.matches({"a": 1, "b": "y"})

    def test_constraints_view_builds_a_reduced_filter(self):
        base = Filter({"a": 1, "b": 2})
        reduced = Filter({name: c for name, c in base.constraints.items() if name != "b"})
        assert reduced.attribute_names() == ("a",)
        assert reduced.matches({"a": 1})
        assert base.attribute_names() == ("a", "b")

    def test_attribute_names_sorted(self):
        assert Filter({"z": 1, "a": 2}).attribute_names() == ("a", "z")

    def test_usable_as_dict_key(self):
        table = {Filter({"a": 1}): "left", Filter({"a": 2}): "right"}
        assert table[Filter({"a": 1})] == "left"

    def test_iteration_and_len(self):
        filter_ = Filter({"a": 1, "b": GreaterEqual(2)})
        names = [name for name, _ in filter_]
        assert names == ["a", "b"]
        assert len(filter_) == 2

    def test_repr_is_informative(self):
        rendered = repr(Filter({"service": "parking"}))
        assert "service" in rendered and "parking" in rendered
