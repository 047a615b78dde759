"""Content-based filter algebra.

This package implements the subscription language used by the Rebeca-style
content-based publish/subscribe middleware reproduced from Fiege et al.,
"Supporting Mobility in Content-Based Publish/Subscribe Middleware"
(Middleware 2003).

A *filter* is a conjunction of per-attribute *constraints* over the
name/value-pair content of a notification (Section 2.1 of the paper).  The
algebra provides three operations that the routing layer relies on:

``matches``
    Boolean evaluation of a filter against a notification.

``covers``
    The covering relation used by covering-based routing (Section 2.2):
    ``F1.covers(F2)`` holds when every notification matched by ``F2`` is
    also matched by ``F1``.

``merge``
    Perfect merging of filters (Section 2.2): the resulting filter covers
    all of its base filters and accepts exactly their union when a perfect
    merge exists.
"""

from repro.filters.attributes import AttributeValue, coerce_value, value_type_of
from repro.filters.constraints import (
    AnyValue,
    Between,
    Constraint,
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
from repro.filters.filter import Filter, MatchAll, MatchNone
from repro.filters.covering import filter_covers
from repro.filters.merging import merge_filters, try_merge_pair

__all__ = [
    "AttributeValue",
    "coerce_value",
    "value_type_of",
    "Constraint",
    "AnyValue",
    "Exists",
    "Equals",
    "NotEquals",
    "LessThan",
    "LessEqual",
    "GreaterThan",
    "GreaterEqual",
    "Between",
    "InSet",
    "Prefix",
    "constraint_from_tuple",
    "Filter",
    "MatchAll",
    "MatchNone",
    "filter_covers",
    "merge_filters",
    "try_merge_pair",
]
