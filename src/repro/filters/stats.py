"""Counters of raw matching work: per-sink instances behind a process facade.

The data-plane benchmarks compare how much *raw* constraint evaluation the
dispatch plane and its brute-force oracle perform for the same workload:
evaluating rows one by one funnels through
:meth:`repro.filters.filter.Filter.matches` (counted here), while the
counting index of :mod:`repro.dispatch` only evaluates the residual
constraints its buckets cannot answer (counted in
:data:`repro.dispatch.stats.dispatch_stats` *and* here, so this module's
``constraint_evals`` is the one total both sides are read from).

Since the telemetry subsystem the counters are **attributable**: every
broker owns a plain :class:`MatchingStats` sink inside its
:class:`~repro.telemetry.registry.MetricRegistry`, and the process-wide
:data:`matching_stats` object is an :class:`AggregatedStats` facade that

* exposes the historical read API (``constraint_evals``,
  ``filter_matches``, :meth:`~AggregatedStats.snapshot`,
  :meth:`~AggregatedStats.reset`) as **sums over every registered sink**
  plus an unattributed :attr:`~AggregatedStats.base` sink, and
* exposes :attr:`~AggregatedStats.current` — the sink hot paths write
  to.  Broker entry points point ``current`` at their own registry's
  sink for the duration of the call (execution is single-threaded on
  both runtime backends), so the same increment that feeds the global
  total also lands on the broker that performed the work.  Outside any
  broker (direct ``Filter.matches`` calls in tests and tools) ``current``
  is :attr:`~AggregatedStats.base`.

Process-wide totals are therefore byte-identical to the pre-facade
behaviour, while per-broker and per-network breakdowns become possible.

This module is a dependency leaf: it must not import anything from
:mod:`repro.filters` so that :mod:`repro.filters.filter` can use it.
"""

from __future__ import annotations

import weakref
from typing import Dict


class MatchingStats:
    """Raw per-constraint evaluation counters (one sink; see module docstring)."""

    __slots__ = ("constraint_evals", "filter_matches", "__weakref__")

    def __init__(self) -> None:
        self.constraint_evals = 0
        self.filter_matches = 0

    def reset(self) -> None:
        self.constraint_evals = 0
        self.filter_matches = 0

    def snapshot(self) -> Dict[str, int]:
        """Current counter values (used by benchmarks and metrics)."""
        return {
            "constraint_evals": self.constraint_evals,
            "filter_matches": self.filter_matches,
        }


class AggregatedStats:
    """Facade summing a base sink and every registered per-broker sink.

    Subclasses declare ``sink_type`` (the plain stats class) and
    ``fields`` (its counter attribute names); the facade grows one read
    property per field via :func:`_install_aggregate_properties` below.
    Sinks are held through weak references so a dropped broker (and with
    it its registry) silently leaves the aggregate.
    """

    sink_type = MatchingStats
    fields = ("constraint_evals", "filter_matches")

    def __init__(self) -> None:
        self.base = self.sink_type()
        #: The sink hot paths write to.  Broker entry points swap this to
        #: their own registry's sink and restore it on exit.
        self.current = self.base
        self._sinks: "weakref.WeakSet" = weakref.WeakSet()

    def register(self, sink) -> None:
        """Include *sink* in every aggregate read until it is collected."""
        self._sinks.add(sink)

    def unregister(self, sink) -> None:
        """Drop *sink* from the aggregate (idempotent)."""
        self._sinks.discard(sink)

    def _total(self, field: str) -> int:
        total = getattr(self.base, field)
        for sink in self._sinks:
            total += getattr(sink, field)
        return total

    def snapshot(self) -> Dict[str, int]:
        """Summed counter values, same keys as one sink's snapshot."""
        return {field: self._total(field) for field in self.fields}

    def reset(self) -> None:
        """Zero the base sink and every registered sink."""
        self.base.reset()
        for sink in self._sinks:
            sink.reset()


def _install_aggregate_properties(facade_type) -> None:
    """Give *facade_type* one summed read property per sink field."""
    for field in facade_type.fields:
        setattr(
            facade_type,
            field,
            property(lambda self, _field=field: self._total(_field)),
        )


class MatchingStatsAggregate(AggregatedStats):
    """Process-wide view over every matching-stats sink."""

    sink_type = MatchingStats
    fields = MatchingStats.__slots__[:-1]  # without __weakref__


_install_aggregate_properties(MatchingStatsAggregate)


#: Global facade incremented (through ``.current``) by ``Filter.matches``
#: and by the residual-constraint evaluations of the counting dispatch
#: index; reads sum the base sink and every broker registry's sink.
matching_stats = MatchingStatsAggregate()
