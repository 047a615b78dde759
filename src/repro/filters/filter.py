"""Conjunctive content-based filters.

A :class:`Filter` maps attribute names to :class:`~repro.filters.constraints.Constraint`
objects and matches a notification when every constraint is satisfied by
the notification's attribute of the same name (Section 2.1 of the paper).
Attributes of the notification that the filter does not mention are
ignored; attributes mentioned by the filter but absent from the
notification fail the match (except for :class:`AnyValue` constraints).

Two singleton-like special filters exist:

* :class:`MatchAll` — matches every notification; used by flooding and as
  the top element of the covering lattice.
* :class:`MatchNone` — matches nothing; the bottom element, useful as the
  instantiation of a ``myloc`` marker with an empty location set.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Mapping, Optional, Tuple

from repro.filters.constraints import Constraint, constraint_from_tuple


class Filter:
    """A conjunction of per-attribute constraints.

    Filters are immutable and hashable so that routing tables can use them
    as dictionary keys and covering computations can cache results.

    Parameters
    ----------
    constraints:
        Mapping from attribute name to a constraint or a terse constraint
        specification accepted by
        :func:`repro.filters.constraints.constraint_from_tuple`.
    """

    # ``__weakref__``: the network's live-filter table holds its values
    # weakly (see repro.filters.merging.FilterCaches).
    __slots__ = (
        "_constraints",
        "_key",
        "_hash",
        "_repr",
        "_wire",
        "_json",
        "_sort_token",
        "_profile",
        "__weakref__",
    )

    def __init__(self, constraints: Optional[Mapping[str, Any]] = None, **kwargs: Any) -> None:
        merged: Dict[str, Any] = {}
        if constraints:
            merged.update(constraints)
        merged.update(kwargs)
        built: Dict[str, Constraint] = {}
        for name, spec in merged.items():
            if not isinstance(name, str) or not name:
                raise ValueError("attribute names must be non-empty strings: {!r}".format(name))
            built[name] = constraint_from_tuple(spec)
        self._constraints: Dict[str, Constraint] = built
        self._key: Tuple[Tuple[str, Tuple[Any, ...]], ...] = tuple(
            sorted((name, c.key()) for name, c in built.items())
        )
        self._hash = hash(self._key)
        # Memos of five renderings of an immutable filter: ``repr``, the
        # wire payload (owned by :func:`repro.filters.wire.filter_to_wire`),
        # that payload's canonical JSON text (owned by
        # :func:`repro.messages.wire._filter_json`), the forwarding
        # emission-order token (owned by
        # :func:`repro.broker.forwarding._forwarding_sort_key`) and the
        # covering index's profile (owned by
        # :func:`repro.filters.selectivity.covering_profile`).
        self._repr: Optional[str] = None
        self._wire: Optional[Dict[str, Any]] = None
        self._json: Optional[str] = None
        self._sort_token: Any = None
        self._profile: Any = None

    # -- construction helpers -----------------------------------------------
    @classmethod
    def all(cls) -> "MatchAll":
        """The filter matching every notification."""
        return MatchAll()

    @classmethod
    def none(cls) -> "MatchNone":
        """The filter matching no notification."""
        return MatchNone()

    def with_constraint(self, name: str, spec: Any) -> "Filter":
        """Return a copy of this filter with the constraint on *name* replaced."""
        updated: Dict[str, Any] = dict(self._constraints)
        updated[name] = constraint_from_tuple(spec)
        return Filter(updated)

    # -- inspection -----------------------------------------------------------
    @property
    def constraints(self) -> Mapping[str, Constraint]:
        """Read-only view of the constraint mapping."""
        return dict(self._constraints)

    def constraint_for(self, name: str) -> Optional[Constraint]:
        """The constraint on attribute *name*, or ``None`` when unconstrained."""
        return self._constraints.get(name)

    def attribute_names(self) -> Tuple[str, ...]:
        """The attribute names this filter constrains, sorted."""
        return tuple(sorted(self._constraints))

    def is_empty(self) -> bool:
        """``True`` when the filter has no constraints (it matches everything)."""
        return not self._constraints

    def __iter__(self) -> Iterator[Tuple[str, Constraint]]:
        return iter(sorted(self._constraints.items()))

    def constraint_items(self):
        """Constraint mapping items without sorting or copying.

        Hot paths (covering tests, overlap hints, index construction) that
        do not care about attribute order should prefer this over
        ``__iter__``, which sorts (and therefore allocates) on every call.
        """
        return self._constraints.items()

    def __len__(self) -> int:
        return len(self._constraints)

    # -- matching --------------------------------------------------------------
    def matches(self, attributes: Mapping[str, Any]) -> bool:
        """Return ``True`` when every constraint accepts the notification content.

        *attributes* is the name/value mapping of a notification (or a
        :class:`~repro.messages.notification.Notification`'s ``attributes``).
        """
        for name, constraint in self._constraints.items():
            if name in attributes:
                if not constraint.matches(attributes[name]):
                    return False
            else:
                if not constraint.matches_absent():
                    return False
        return True

    # -- identity ---------------------------------------------------------------
    def key(self) -> Tuple[Any, ...]:
        """Canonical hashable identity of the filter."""
        return self._key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Filter):
            return NotImplemented
        if isinstance(other, (MatchAll, MatchNone)) != isinstance(self, (MatchAll, MatchNone)):
            # An empty Filter() and MatchAll() accept the same notifications
            # but are distinct routing-table entries only through covering;
            # treat them as equal for convenience.
            return self.key() == other.key() and self.is_empty() and other.is_empty()
        return self._key == other._key and type(self).__name__ == type(other).__name__

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if not self._constraints:
            return "Filter(<all>)"
        if self._repr is None:
            parts = ", ".join(
                "{}{}".format(name, _render_constraint(c))
                for name, c in sorted(self._constraints.items())
            )
            self._repr = "Filter({})".format(parts)
        return self._repr


class MatchAll(Filter):
    """The filter that accepts every notification (used by flooding)."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__({})

    def matches(self, attributes: Mapping[str, Any]) -> bool:
        return True

    def __repr__(self) -> str:
        return "MatchAll()"


class MatchNone(Filter):
    """The filter that accepts no notification.

    Used as the degenerate instantiation of a location-dependent
    subscription whose ``myloc`` location set is empty, and as a neutral
    element in merging computations.
    """

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__({})

    def matches(self, attributes: Mapping[str, Any]) -> bool:
        return False

    def key(self) -> Tuple[Any, ...]:
        return (("__match_none__", ("none",)),)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MatchNone)

    def __hash__(self) -> int:
        return hash("__match_none__")

    def __repr__(self) -> str:
        return "MatchNone()"


def _render_constraint(constraint: Constraint) -> str:
    """Human-readable rendering used by ``Filter.__repr__``."""
    key = constraint.key()
    op = key[0]
    if op == "eq":
        return "={!r}".format(constraint.value)  # type: ignore[attr-defined]
    if op == "in":
        values = ", ".join(repr(v) for v in constraint.values)  # type: ignore[attr-defined]
        return "∈{{{}}}".format(values)
    if op in ("any", "exists"):
        return ":{}".format(op)
    return " {} {}".format(op, ", ".join(repr(v) for v in key[1:]))


def filter_from_template(template: Mapping[str, Any]) -> Filter:
    """Build a filter from a plain mapping of attribute name to spec.

    This is the main convenience entry point used by examples and
    workloads, mirroring the paper's subscription examples::

        filter_from_template({
            "service": "parking",
            "location": ("in", ["Rebeca Drive 100", "Rebeca Drive 102"]),
            "cost": ("<", 3),
            "car-type": (">=", "compact"),
        })
    """
    return Filter(template)
