"""Unit tests for location-dependent filters and the myloc marker."""

import pytest

from repro.core.location_filter import MYLOC, LocationDependentFilter
from repro.filters.filter import MatchNone


class TestConstruction:
    def test_marker_attribute_detected(self):
        ld = LocationDependentFilter({"service": "parking", "location": MYLOC})
        assert ld.location_attribute == "location"
        assert ld.base_filter.attribute_names() == ("service",)

    def test_marker_on_custom_attribute(self):
        ld = LocationDependentFilter({"service": "parking", "room": MYLOC})
        assert ld.location_attribute == "room"

    def test_location_attribute_named_explicitly(self):
        ld = LocationDependentFilter({"service": "parking"}, location_attribute="zone")
        assert ld.location_attribute == "zone"

    def test_only_one_marker_allowed(self):
        with pytest.raises(ValueError):
            LocationDependentFilter({"a": MYLOC, "b": MYLOC})

    def test_fixed_constraint_on_location_attribute_rejected(self):
        with pytest.raises(ValueError):
            LocationDependentFilter({"location": "here"}, location_attribute="location")

    def test_negative_vicinity_rejected(self):
        with pytest.raises(ValueError):
            LocationDependentFilter({"location": MYLOC}, vicinity=-1)

    def test_myloc_repr_and_singleton(self):
        assert repr(MYLOC) == "myloc"
        from repro.core.location_filter import _MyLocMarker

        assert _MyLocMarker() is MYLOC


class TestInstantiation:
    def test_instantiate_with_locations(self):
        ld = LocationDependentFilter({"service": "parking", "location": MYLOC})
        concrete = ld.instantiate(["a", "b"])
        assert concrete.matches({"service": "parking", "location": "a"})
        assert concrete.matches({"service": "parking", "location": "b"})
        assert not concrete.matches({"service": "parking", "location": "c"})
        assert not concrete.matches({"service": "fuel", "location": "a"})

    def test_empty_location_set_matches_nothing(self):
        ld = LocationDependentFilter({"location": MYLOC})
        assert isinstance(ld.instantiate([]), MatchNone)

    def test_notification_without_location_never_matches(self):
        ld = LocationDependentFilter({"service": "parking", "location": MYLOC})
        assert not ld.instantiate(["a"]).matches({"service": "parking"})


class TestIdentity:
    def test_equality_and_hash(self):
        left = LocationDependentFilter({"service": "parking", "location": MYLOC})
        right = LocationDependentFilter({"service": "parking", "location": MYLOC})
        different = LocationDependentFilter({"service": "fuel", "location": MYLOC})
        assert left == right
        assert hash(left) == hash(right)
        assert left != different

    def test_vicinity_part_of_identity(self):
        near = LocationDependentFilter({"location": MYLOC}, vicinity=0)
        wide = LocationDependentFilter({"location": MYLOC}, vicinity=2)
        assert near != wide

    def test_repr(self):
        ld = LocationDependentFilter({"service": "parking", "location": MYLOC}, vicinity=1)
        rendered = repr(ld)
        assert "location" in rendered and "vicinity=1" in rendered
