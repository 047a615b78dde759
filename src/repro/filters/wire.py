"""Wire codec for filters and constraints.

Filters cross real links inside administrative and mobility messages, so
the asyncio backend (:mod:`repro.runtime.aio`) needs a byte-level
representation.  The codec serialises a constraint as its canonical
:meth:`~repro.filters.constraints.Constraint.key` — operator mnemonic
plus type-tagged operands — which is exactly the identity filter
equality, covering and routing-table keys are built on.  Round-tripping
therefore preserves ``Filter.key()`` bit for bit::

    filter_from_wire(filter_to_wire(f)).key() == f.key()

The payloads are plain JSON values (dicts, lists, strings, numbers,
booleans): tuples in the canonical keys become lists on the wire and are
rebuilt on decode.  Numbers round-trip through the ``number`` type tag
(``canonical_key`` floats them, so ``Equals(3)`` and ``Equals(3.0)``
share one wire form — as they share one key).
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

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
)
from repro.filters.filter import Filter, MatchAll, MatchNone


class WireError(ValueError):
    """Raised for malformed payloads: filters, constraints, messages and frames.

    The one decode error of the codec; :mod:`repro.messages.wire` raises
    and re-exports it.
    """


def _value_to_wire(canonical: Sequence[Any]) -> List[Any]:
    """A canonical ``(tag, value)`` key as a JSON-friendly list."""
    return [canonical[0], canonical[1]]


def _value_from_wire(payload: Sequence[Any]) -> Any:
    """Invert :func:`_value_to_wire` back to a plain attribute value."""
    if not isinstance(payload, (list, tuple)) or len(payload) != 2:
        raise WireError("malformed value key: {!r}".format(payload))
    tag, value = payload
    if tag == "number":
        return float(value)
    if tag in ("string", "boolean"):
        return value
    raise WireError("unknown value type tag: {!r}".format(tag))


def constraint_to_wire(constraint: Constraint) -> List[Any]:
    """The constraint's canonical key as a JSON-friendly ``[op, ...]`` list."""
    key = constraint.key()
    op = key[0]
    if op in ("any", "exists"):
        return [op]
    if op in ("eq", "ne", "lt", "le", "gt", "ge"):
        return [op, _value_to_wire(key[1])]
    if op == "between":
        return [op, _value_to_wire(key[1]), _value_to_wire(key[2]), key[3], key[4]]
    if op == "in":
        return [op, [_value_to_wire(value_key) for value_key in key[1]]]
    if op == "prefix":
        return [op, key[1]]
    raise WireError("constraint {!r} has no wire form".format(constraint))


_SCALAR_OPS = {
    "eq": Equals,
    "ne": NotEquals,
    "lt": LessThan,
    "le": LessEqual,
    "gt": GreaterThan,
    "ge": GreaterEqual,
}


def constraint_from_wire(payload: Sequence[Any]) -> Constraint:
    """Rebuild a constraint from its wire form (inverse of ``constraint_to_wire``)."""
    if not isinstance(payload, (list, tuple)) or not payload:
        raise WireError("malformed constraint payload: {!r}".format(payload))
    op = payload[0]
    if op == "any":
        return AnyValue()
    if op == "exists":
        return Exists()
    ctor = _SCALAR_OPS.get(op)
    if ctor is not None:
        return ctor(_value_from_wire(payload[1]))
    if op == "between":
        return Between(
            _value_from_wire(payload[1]),
            _value_from_wire(payload[2]),
            bool(payload[3]),
            bool(payload[4]),
        )
    if op == "in":
        return InSet([_value_from_wire(value_key) for value_key in payload[1]])
    if op == "prefix":
        return Prefix(payload[1])
    raise WireError("unknown constraint operator: {!r}".format(op))


def filter_to_wire(filter_: Filter) -> Dict[str, Any]:
    """A JSON-friendly representation of *filter_* built on canonical keys.

    Filters are immutable and the same one is journalled and encoded at
    every hop, so the payload is built once and kept on the instance:
    callers embed or encode it and must not change it.
    """
    payload = filter_._wire
    if payload is None:
        if isinstance(filter_, MatchNone):
            payload = {"kind": "none"}
        elif isinstance(filter_, MatchAll):
            payload = {"kind": "all"}
        else:
            payload = {
                "kind": "filter",
                "constraints": [
                    [name, constraint_to_wire(constraint)] for name, constraint in filter_
                ],
            }
        filter_._wire = payload
    return payload


def filter_from_wire(payload: Dict[str, Any]) -> Filter:
    """Rebuild a filter from its wire form (inverse of :func:`filter_to_wire`)."""
    kind = payload.get("kind")
    if kind == "none":
        return MatchNone()
    if kind == "all":
        return MatchAll()
    if kind != "filter":
        raise WireError("unknown filter kind: {!r}".format(kind))
    constraints: Dict[str, Constraint] = {}
    for item in payload.get("constraints", ()):
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise WireError("malformed filter constraint entry: {!r}".format(item))
        name, spec = item
        constraints[name] = constraint_from_wire(spec)
    return Filter(constraints)


#: The wire pair of a filter-valued message field (see ``Message.wire_fields``).
FILTER = (filter_to_wire, filter_from_wire)
