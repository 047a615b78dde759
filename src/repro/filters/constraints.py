"""Per-attribute constraints.

A content-based filter (Section 2.1 of the paper) is a conjunction of
constraints, each over a single attribute name.  This module defines the
constraint types, their matching semantics, and the pairwise *covering*
relation between constraints on the same attribute which the
covering-based routing strategy (Section 2.2) relies on.

The covering test implemented here is *sound*: whenever
``c1.covers(c2)`` returns ``True``, every value accepted by ``c2`` is also
accepted by ``c1``.  It is intentionally not complete for a few exotic
combinations (e.g. a dense enumeration of an interval by an ``InSet``
covering a ``Between``); incompleteness only costs routing-table
optimisation opportunities, never correctness, exactly as in Rebeca and
Siena.
"""

from __future__ import annotations

from typing import Any, Iterable, Tuple

from repro.filters.attributes import (
    TYPE_NUMBER,
    TYPE_STRING,
    AttributeValue,
    canonical_key,
    coerce_value,
    try_compare,
    value_type_of,
    values_equal,
)


class Constraint:
    """Abstract base class for a constraint on a single attribute value.

    Subclasses implement :meth:`matches`, :meth:`covers` and expose a
    canonical, hashable :meth:`key` used for filter equality.
    """

    #: Short operator mnemonic used by ``repr`` and serialisation.
    op: str = "?"

    def matches(self, value: AttributeValue) -> bool:
        """Return ``True`` when *value* satisfies the constraint."""
        raise NotImplementedError

    def matches_absent(self) -> bool:
        """Return ``True`` when the constraint is satisfied by a missing attribute.

        Only :class:`AnyValue` is satisfied by an absent attribute; every
        other constraint requires the attribute to be present.
        """
        return False

    def covers(self, other: "Constraint") -> bool:
        """Sound covering test: does ``self`` accept a superset of ``other``?"""
        raise NotImplementedError

    def key(self) -> Tuple[Any, ...]:
        """Canonical hashable representation (operator plus operands)."""
        raise NotImplementedError

    # -- hashing / equality -------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Constraint):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "{}({})".format(type(self).__name__, ", ".join(map(repr, self.key()[1:])))


# ---------------------------------------------------------------------------
# Trivial constraints
# ---------------------------------------------------------------------------


class AnyValue(Constraint):
    """Matches any value and also an absent attribute (i.e. no constraint)."""

    op = "any"

    def matches(self, value: AttributeValue) -> bool:
        return True

    def matches_absent(self) -> bool:
        return True

    def covers(self, other: Constraint) -> bool:
        return True

    def key(self) -> Tuple[Any, ...]:
        return (self.op,)


class Exists(Constraint):
    """Matches any value but requires the attribute to be present."""

    op = "exists"

    def matches(self, value: AttributeValue) -> bool:
        return True

    def covers(self, other: Constraint) -> bool:
        # Everything except AnyValue requires presence, so Exists covers it.
        return not isinstance(other, AnyValue)

    def key(self) -> Tuple[Any, ...]:
        return (self.op,)


# ---------------------------------------------------------------------------
# Equality constraints
# ---------------------------------------------------------------------------


class Equals(Constraint):
    """``attribute = value``."""

    op = "eq"

    def __init__(self, value: AttributeValue) -> None:
        self.value = coerce_value(value)

    def matches(self, value: AttributeValue) -> bool:
        return values_equal(value, self.value)

    def covers(self, other: Constraint) -> bool:
        if isinstance(other, Equals):
            return values_equal(other.value, self.value)
        if isinstance(other, InSet):
            return all(values_equal(v, self.value) for v in other.values)
        if isinstance(other, Between):
            return other.is_degenerate() and values_equal(other.low, self.value)
        return False

    def key(self) -> Tuple[Any, ...]:
        return (self.op, canonical_key(self.value))


class NotEquals(Constraint):
    """``attribute != value``."""

    op = "ne"

    def __init__(self, value: AttributeValue) -> None:
        self.value = coerce_value(value)

    def matches(self, value: AttributeValue) -> bool:
        return not values_equal(value, self.value)

    def covers(self, other: Constraint) -> bool:
        if isinstance(other, NotEquals):
            return values_equal(other.value, self.value)
        if isinstance(other, Equals):
            return not values_equal(other.value, self.value)
        if isinstance(other, InSet):
            return all(not values_equal(v, self.value) for v in other.values)
        if isinstance(other, (LessThan, GreaterThan)):
            # A strict bound excludes its pivot; it is covered when the
            # excluded value is the pivot itself only if nothing else could
            # equal self.value -- too fine-grained to decide soundly except
            # when the pivot equals our excluded value and the bound is
            # strict away from it.  Keep it conservative.
            return False
        return False

    def key(self) -> Tuple[Any, ...]:
        return (self.op, canonical_key(self.value))


# ---------------------------------------------------------------------------
# Ordering constraints
# ---------------------------------------------------------------------------


class _OrderedConstraint(Constraint):
    """Common behaviour for constraints with a single ordered pivot value."""

    def __init__(self, value: AttributeValue) -> None:
        self.value = coerce_value(value)
        tag = value_type_of(self.value)
        if tag not in (TYPE_NUMBER, TYPE_STRING):
            raise TypeError(
                "ordered constraints require a string or numeric pivot, got {!r}".format(value)
            )

    def key(self) -> Tuple[Any, ...]:
        return (self.op, canonical_key(self.value))


class LessThan(_OrderedConstraint):
    """``attribute < value``."""

    op = "lt"

    def matches(self, value: AttributeValue) -> bool:
        ok, sign = try_compare(value, self.value)
        return ok and sign < 0

    def covers(self, other: Constraint) -> bool:
        if isinstance(other, LessThan):
            ok, sign = try_compare(other.value, self.value)
            return ok and sign <= 0
        if isinstance(other, LessEqual):
            ok, sign = try_compare(other.value, self.value)
            return ok and sign < 0
        if isinstance(other, Equals):
            ok, sign = try_compare(other.value, self.value)
            return ok and sign < 0
        if isinstance(other, InSet):
            return all(self.matches(v) for v in other.values)
        if isinstance(other, Between):
            ok, sign = try_compare(other.high, self.value)
            if not ok:
                return False
            return sign < 0 or (sign == 0 and not other.high_inclusive)
        return False


class LessEqual(_OrderedConstraint):
    """``attribute <= value``."""

    op = "le"

    def matches(self, value: AttributeValue) -> bool:
        ok, sign = try_compare(value, self.value)
        return ok and sign <= 0

    def covers(self, other: Constraint) -> bool:
        if isinstance(other, (LessThan, LessEqual)):
            ok, sign = try_compare(other.value, self.value)
            return ok and sign <= 0
        if isinstance(other, Equals):
            ok, sign = try_compare(other.value, self.value)
            return ok and sign <= 0
        if isinstance(other, InSet):
            return all(self.matches(v) for v in other.values)
        if isinstance(other, Between):
            ok, sign = try_compare(other.high, self.value)
            return ok and sign <= 0
        return False


class GreaterThan(_OrderedConstraint):
    """``attribute > value``."""

    op = "gt"

    def matches(self, value: AttributeValue) -> bool:
        ok, sign = try_compare(value, self.value)
        return ok and sign > 0

    def covers(self, other: Constraint) -> bool:
        if isinstance(other, GreaterThan):
            ok, sign = try_compare(other.value, self.value)
            return ok and sign >= 0
        if isinstance(other, GreaterEqual):
            ok, sign = try_compare(other.value, self.value)
            return ok and sign > 0
        if isinstance(other, Equals):
            ok, sign = try_compare(other.value, self.value)
            return ok and sign > 0
        if isinstance(other, InSet):
            return all(self.matches(v) for v in other.values)
        if isinstance(other, Between):
            ok, sign = try_compare(other.low, self.value)
            if not ok:
                return False
            return sign > 0 or (sign == 0 and not other.low_inclusive)
        return False


class GreaterEqual(_OrderedConstraint):
    """``attribute >= value``."""

    op = "ge"

    def matches(self, value: AttributeValue) -> bool:
        ok, sign = try_compare(value, self.value)
        return ok and sign >= 0

    def covers(self, other: Constraint) -> bool:
        if isinstance(other, (GreaterThan, GreaterEqual)):
            ok, sign = try_compare(other.value, self.value)
            return ok and sign >= 0
        if isinstance(other, Equals):
            ok, sign = try_compare(other.value, self.value)
            return ok and sign >= 0
        if isinstance(other, InSet):
            return all(self.matches(v) for v in other.values)
        if isinstance(other, Between):
            ok, sign = try_compare(other.low, self.value)
            return ok and sign >= 0
        return False


class Between(Constraint):
    """``low <= attribute <= high`` with configurable bound inclusivity."""

    op = "between"

    def __init__(
        self,
        low: AttributeValue,
        high: AttributeValue,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> None:
        self.low = coerce_value(low)
        self.high = coerce_value(high)
        self.low_inclusive = bool(low_inclusive)
        self.high_inclusive = bool(high_inclusive)
        ok, sign = try_compare(self.low, self.high)
        if not ok:
            raise TypeError("interval bounds must be order-comparable")
        if sign > 0:
            raise ValueError("interval low bound must not exceed high bound")

    def is_degenerate(self) -> bool:
        """``True`` for a closed interval [x, x] accepting a single value."""
        ok, sign = try_compare(self.low, self.high)
        return ok and sign == 0 and self.low_inclusive and self.high_inclusive

    def matches(self, value: AttributeValue) -> bool:
        ok_low, sign_low = try_compare(value, self.low)
        ok_high, sign_high = try_compare(value, self.high)
        if not (ok_low and ok_high):
            return False
        low_ok = sign_low > 0 or (sign_low == 0 and self.low_inclusive)
        high_ok = sign_high < 0 or (sign_high == 0 and self.high_inclusive)
        return low_ok and high_ok

    def covers(self, other: Constraint) -> bool:
        if isinstance(other, Equals):
            return self.matches(other.value)
        if isinstance(other, InSet):
            return all(self.matches(v) for v in other.values)
        if isinstance(other, Between):
            ok_low, sign_low = try_compare(other.low, self.low)
            ok_high, sign_high = try_compare(other.high, self.high)
            if not (ok_low and ok_high):
                return False
            low_ok = sign_low > 0 or (
                sign_low == 0 and (self.low_inclusive or not other.low_inclusive)
            )
            high_ok = sign_high < 0 or (
                sign_high == 0 and (self.high_inclusive or not other.high_inclusive)
            )
            return low_ok and high_ok
        return False

    def key(self) -> Tuple[Any, ...]:
        return (
            self.op,
            canonical_key(self.low),
            canonical_key(self.high),
            self.low_inclusive,
            self.high_inclusive,
        )


# ---------------------------------------------------------------------------
# Set membership and string constraints
# ---------------------------------------------------------------------------


class InSet(Constraint):
    """``attribute ∈ {v1, v2, ...}``.

    This constraint is the work-horse of logical mobility: a
    location-dependent subscription instantiates the ``myloc`` marker with
    an :class:`InSet` over ``ploc(x, q)`` (Section 5.1 of the paper).
    """

    op = "in"

    def __init__(self, values: Iterable[AttributeValue]) -> None:
        coerced = [coerce_value(v) for v in values]
        if not coerced:
            raise ValueError("InSet requires at least one value; use MatchNone for empty sets")
        # Keep canonical keys for fast membership, and one representative
        # value per key for iteration / merging.
        by_key = {}
        for value in coerced:
            by_key.setdefault(canonical_key(value), value)
        self._by_key = by_key
        self.values: Tuple[AttributeValue, ...] = tuple(
            by_key[k] for k in sorted(by_key, key=repr)
        )
        # Sorted once: equality, hashing, covering and the wire form all
        # ask for the key, and a ploc set has dozens of members.
        self._key: Tuple[Any, ...] = (self.op, tuple(sorted(by_key)))

    def matches(self, value: AttributeValue) -> bool:
        return canonical_key(value) in self._by_key

    def covers(self, other: Constraint) -> bool:
        if isinstance(other, Equals):
            return self.matches(other.value)
        if isinstance(other, InSet):
            # Compare the canonical-key views both sets already hold.
            return other._by_key.keys() <= self._by_key.keys()
        if isinstance(other, Between):
            return other.is_degenerate() and self.matches(other.low)
        return False

    def key(self) -> Tuple[Any, ...]:
        return self._key

    def union(self, other: "InSet") -> "InSet":
        """Return an :class:`InSet` accepting the union of both value sets."""
        return InSet(tuple(self.values) + tuple(other.values))


class Prefix(Constraint):
    """``attribute`` is a string starting with the given prefix."""

    op = "prefix"

    def __init__(self, prefix: str) -> None:
        if not isinstance(prefix, str):
            raise TypeError("Prefix constraint requires a string prefix")
        self.prefix = prefix

    def matches(self, value: AttributeValue) -> bool:
        return isinstance(value, str) and value.startswith(self.prefix)

    def covers(self, other: Constraint) -> bool:
        if isinstance(other, Prefix):
            return other.prefix.startswith(self.prefix)
        if isinstance(other, Equals):
            return isinstance(other.value, str) and other.value.startswith(self.prefix)
        if isinstance(other, InSet):
            return all(self.matches(v) for v in other.values)
        return False

    def key(self) -> Tuple[Any, ...]:
        return (self.op, self.prefix)


# ---------------------------------------------------------------------------
# Construction helpers
# ---------------------------------------------------------------------------

#: Mapping from operator mnemonics (and common symbols) to constructors.
_OPERATORS = {
    "any": lambda *a: AnyValue(),
    "exists": lambda *a: Exists(),
    "eq": Equals,
    "=": Equals,
    "==": Equals,
    "ne": NotEquals,
    "!=": NotEquals,
    "lt": LessThan,
    "<": LessThan,
    "le": LessEqual,
    "<=": LessEqual,
    "gt": GreaterThan,
    ">": GreaterThan,
    "ge": GreaterEqual,
    ">=": GreaterEqual,
    "in": InSet,
    "between": Between,
    "prefix": Prefix,
}


def constraint_from_tuple(spec: Any) -> Constraint:
    """Build a constraint from a terse specification.

    Accepted forms (used pervasively by tests, examples and workloads)::

        constraint_from_tuple(5)                  -> Equals(5)
        constraint_from_tuple("parking")          -> Equals("parking")
        constraint_from_tuple(("<", 3))           -> LessThan(3)
        constraint_from_tuple(("in", ["a", "b"])) -> InSet({"a", "b"})
        constraint_from_tuple(("between", 1, 5))  -> Between(1, 5)
        constraint_from_tuple(existing_constraint) -> existing_constraint
    """
    if isinstance(spec, Constraint):
        return spec
    if isinstance(spec, tuple) and spec and isinstance(spec[0], str) and spec[0] in _OPERATORS:
        op = spec[0]
        args = spec[1:]
        ctor = _OPERATORS[op]
        if op == "in" and len(args) == 1:
            return ctor(args[0])
        return ctor(*args)
    # Bare value means equality.
    return Equals(coerce_value(spec))
