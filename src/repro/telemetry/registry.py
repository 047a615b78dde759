"""Per-broker metric registry — the single home for instrumentation.

Every :class:`~repro.broker.base.Broker` owns one :class:`MetricRegistry`.
It bundles

* the broker's **counters** dictionary (the historical ``broker.counters``
  is this very dict, so every existing increment site feeds the registry
  for free),
* one plain sink instance of each data-plane stats family
  (:class:`~repro.filters.stats.MatchingStats`,
  :class:`~repro.dispatch.stats.DispatchStats`,
  :class:`~repro.filters.merging.MergingStats`), registered with the
  process-wide aggregate facades so global totals keep summing correctly,
* **gauges** (last value + high watermark, e.g. link queue depths), and
* fixed-bucket **histograms** (e.g. dispatch fan-out per notification).

Attribution works by pointer swapping, not by threading a registry
through every call: broker entry points call :meth:`activate`, which
points the three facades' ``current`` sinks at this registry for the
duration of the call (both runtime backends execute broker code on a
single thread, so save/restore nesting is safe), and :meth:`restore`
puts the previous sinks back.  The hot paths themselves only pay one
extra attribute load.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.dispatch.stats import DispatchStats, dispatch_stats
from repro.filters.merging import MergingStats, merge_stats
from repro.filters.stats import MatchingStats, matching_stats

#: Default histogram bucket upper bounds (last bucket is unbounded).
DEFAULT_BUCKETS = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)


class Histogram:
    """A fixed-bucket histogram of non-negative observations."""

    __slots__ = ("bounds", "bucket_counts", "count", "total", "max")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.bounds: Tuple[float, ...] = tuple(bounds)
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[index] += 1
                return
        self.bucket_counts[-1] += 1

    def snapshot(self) -> Dict[str, object]:
        """JSON-friendly state (used by metric snapshot events)."""
        return {
            "bounds": list(self.bounds),
            "bucket_counts": list(self.bucket_counts),
            "count": self.count,
            "sum": self.total,
            "max": self.max,
        }

    def reset(self) -> None:
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.max = 0.0


class MetricRegistry:
    """All instrumentation of one owning broker (see module docstring)."""

    __slots__ = ("owner", "matching", "dispatch", "merging", "counters", "gauges", "histograms")

    def __init__(self, owner: str) -> None:
        self.owner = owner
        self.matching = MatchingStats()
        self.dispatch = DispatchStats()
        self.merging = MergingStats()
        matching_stats.register(self.matching)
        dispatch_stats.register(self.dispatch)
        merge_stats.register(self.merging)
        #: Plain named counters; the broker's ``counters`` attribute is
        #: this very dict (shared reference).
        self.counters: Dict[str, int] = {}
        #: name -> (last value, high watermark).
        self.gauges: Dict[str, Tuple[float, float]] = {}
        self.histograms: Dict[str, Histogram] = {}

    # -- attribution ---------------------------------------------------
    def activate(self):
        """Point the process facades' hot-path sinks at this registry.

        Returns the previous sinks; pass them to :meth:`restore` in a
        ``finally`` block.  Nesting (a broker entry point reached from
        another broker entry point) is safe: restore unwinds in order.
        """
        saved = (matching_stats.current, dispatch_stats.current, merge_stats.current)
        matching_stats.current = self.matching
        dispatch_stats.current = self.dispatch
        merge_stats.current = self.merging
        return saved

    @staticmethod
    def restore(saved) -> None:
        """Undo :meth:`activate` (restore the previously active sinks)."""
        matching_stats.current, dispatch_stats.current, merge_stats.current = saved

    # -- recording -----------------------------------------------------
    def inc(self, name: str, amount: int = 1) -> None:
        """Add *amount* to counter *name* (created at 0)."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        """Record the gauge's last value and keep its high watermark."""
        previous = self.gauges.get(name)
        high = value if previous is None or value > previous[1] else previous[1]
        self.gauges[name] = (value, high)

    def observe(self, name: str, value: float) -> None:
        """Record *value* into histogram *name* (created on first use)."""
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram()
        histogram.observe(value)

    def queue_depth_probe(self, link_name: str):
        """A callable recording one link's queue depth (gauge + histogram).

        Wired onto a channel's ``depth_probe`` hook when telemetry is
        enabled; the gauge keys are ``queue_depth:<source>-><target>``.
        """
        gauge_name = "queue_depth:" + link_name

        def probe(depth: int) -> None:
            self.set_gauge(gauge_name, depth)
            self.observe("link_queue_depth", depth)

        return probe

    # -- reading -------------------------------------------------------
    def counter_snapshot(self) -> Dict[str, int]:
        """Every counter this broker owns, data-plane stats included.

        The data-plane families are folded in under their breakdown names
        (``constraint_evals``, ``filter_matches``, ``dispatch_*``,
        ``merge_try_merge_calls``), so one flat dict reconciles against
        :func:`repro.metrics.counters.data_plane_breakdown`.
        """
        out: Dict[str, int] = dict(self.counters)
        out.update(self.matching.snapshot())
        for name, value in self.dispatch.snapshot().items():
            out["dispatch_" + name] = value
        out["merge_try_merge_calls"] = self.merging.try_merge_calls
        return out

    def gauge_snapshot(self) -> Dict[str, Dict[str, float]]:
        """JSON-friendly gauge state: name -> {"last", "high"}."""
        return {
            name: {"last": last, "high": high}
            for name, (last, high) in sorted(self.gauges.items())
        }

    def histogram_snapshot(self) -> Dict[str, Dict[str, object]]:
        """JSON-friendly histogram state per name."""
        return {name: histogram.snapshot() for name, histogram in sorted(self.histograms.items())}

    def reset(self) -> None:
        """Zero everything (counters, stats sinks, gauges, histograms)."""
        for name in self.counters:
            self.counters[name] = 0
        self.matching.reset()
        self.dispatch.reset()
        self.merging.reset()
        self.gauges.clear()
        for histogram in self.histograms.values():
            histogram.reset()

    def close(self) -> None:
        """Detach the stats sinks from the process facades."""
        matching_stats.unregister(self.matching)
        dispatch_stats.unregister(self.dispatch)
        merge_stats.unregister(self.merging)


def scoped_data_plane_breakdown(
    registries: Sequence[Optional[MetricRegistry]],
) -> Dict[str, float]:
    """Matching/dispatch breakdown summed over *registries* only.

    Same keys as the matching/dispatch part of
    :func:`repro.metrics.counters.data_plane_breakdown`, but scoped to
    the given brokers' registries instead of the process-wide facades —
    this is what makes the breakdown attributable per network.
    """
    matching = MatchingStats()
    dispatch = DispatchStats()
    merge_calls = 0
    delivered = 0
    for registry in registries:
        if registry is None:
            continue
        for field in MatchingStats.__slots__[:-1]:
            setattr(matching, field, getattr(matching, field) + getattr(registry.matching, field))
        for field in DispatchStats.__slots__[:-1]:
            setattr(dispatch, field, getattr(dispatch, field) + getattr(registry.dispatch, field))
        merge_calls += registry.merging.try_merge_calls
        delivered += registry.counters.get("notifications_delivered", 0)
    out: Dict[str, float] = dict(matching.snapshot())
    for name, value in dispatch.snapshot().items():
        out["dispatch_" + name] = value
    out["merge_try_merge_calls"] = merge_calls
    out["notifications_delivered"] = delivered
    return out
