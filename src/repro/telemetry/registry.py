"""Per-broker metric registry — the single home for instrumentation.

Every :class:`~repro.broker.base.Broker` owns one :class:`MetricRegistry`.
It bundles

* the broker's **counters** dictionary (the historical ``broker.counters``
  is this very dict, so every existing increment site feeds the registry
  for free),
* the broker's :class:`~repro.dispatch.stats.DispatchStats` sink, handed
  to its dispatch plan, whose index and matcher write it directly,
* **gauges** (last value + high watermark, e.g. link queue depths), and
* fixed-bucket **histograms** (e.g. dispatch fan-out per notification).

Nothing here is process-wide: a counter is written by the component that
does the work, into the registry of the broker that owns it.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Sequence, Tuple

from repro.dispatch.stats import DispatchStats

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

    __slots__ = ("owner", "dispatch", "counters", "gauges", "histograms")

    def __init__(self, owner: str) -> None:
        self.owner = owner
        self.dispatch = DispatchStats()
        #: Plain named counters; the broker's ``counters`` attribute is
        #: this very dict (shared reference).
        self.counters: Dict[str, int] = {}
        #: name -> (last value, high watermark).
        self.gauges: Dict[str, Tuple[float, float]] = {}
        self.histograms: Dict[str, Histogram] = {}

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
        """Every counter this broker owns, dispatch stats included.

        The dispatch sink is folded in under its breakdown names
        (``constraint_evals``, ``dispatch_*``), so one flat dict
        reconciles against :func:`data_plane_breakdown`.
        """
        out: Dict[str, int] = dict(self.counters)
        out["constraint_evals"] = self.dispatch.constraint_evals
        for name, value in self.dispatch.snapshot().items():
            out["dispatch_" + name] = value
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
        """Zero everything (counters, dispatch stats, gauges, histograms)."""
        for name in self.counters:
            self.counters[name] = 0
        self.dispatch.reset()
        self.gauges.clear()
        for histogram in self.histograms.values():
            histogram.reset()


def data_plane_breakdown(brokers: Iterable[Any]) -> Dict[str, int]:
    """Counters describing per-message *data-plane* work, summed over *brokers*.

    The control-plane benchmarks gate covering-call and admin-message
    counts; this breakdown reports what each notification (and each
    advertisement-gate query) actually cost:

    * ``constraint_evals`` — raw constraint evaluations the dispatch plane
      could not answer from its buckets (the count the brute-force
      oracle's evaluations compare against; equal to
      ``dispatch_constraint_evals``);
    * ``dispatch_*`` — the bitset engine's own accounting (passes,
      satisfied predicates, mask operations, shared-predicate skips,
      residual evaluations, filters matched; see
      :mod:`repro.dispatch.stats`);
    * ``notifications_delivered`` — the denominator for per-delivery
      views of the counters above;
    * ``advert_gate_hits`` / ``advert_gate_misses`` /
      ``advert_gate_cached_verdicts`` — the advertisement gate's memo
      accounting (each neighbour's ``verdicts``, see
      :class:`~repro.broker.forwarding.SubscriptionForwarding`).

    Every count comes from the brokers' own registries, so two networks
    in one process never read each other's work.
    """
    broker_counters = ("advert_gate_hits", "advert_gate_misses", "notifications_delivered")
    out = dict.fromkeys(["dispatch_" + name for name in DispatchStats.__slots__], 0)
    out.update(dict.fromkeys(broker_counters + ("advert_gate_cached_verdicts",), 0))
    for broker in brokers:
        for name, value in broker.metrics.dispatch.snapshot().items():
            out["dispatch_" + name] += value
        for name in broker_counters:
            out[name] += broker.counters.get(name, 0)
        for state in broker.forwarding.states.values():
            out["advert_gate_cached_verdicts"] += len(state.verdicts)
    out["constraint_evals"] = out["dispatch_constraint_evals"]
    return out
