"""Tripwire: what one routing row keeps in memory once a network is set up.

A row is stored once, as a ``__slots__`` :class:`~repro.routing.table.RoutingEntry`
under a flat key, and is indexed for matching by the broker's dispatch
plan only.  While the routing table also fed a scan index of its own
(``repro.filters.matching``, deleted) and rows were dict-backed, the
all-distinct population below cost about 5.3 KB of live ``repro``
allocations per row after set-up; it now costs about 3.9 KB (CPython
3.11).  The bound sits between the two.  The population is the
all-distinct one of ``tests/broker/test_admission_scaling.py``.
"""

import importlib
import tracemalloc

import pytest

from tests.broker.test_admission_scaling import distinct_population

SUBSCRIPTIONS = 420
BYTES_PER_ROW = 4600


def test_a_routing_row_stays_small():
    tracemalloc.start()
    try:
        network = distinct_population(SUBSCRIPTIONS)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()

    rows = sum(network.routing_table_sizes().values())
    assert rows > 4 * SUBSCRIPTIONS
    ours = snapshot.filter_traces([tracemalloc.Filter(True, "*/src/repro/*")])
    live = sum(statistic.size for statistic in ours.statistics("filename"))
    assert 0 < live <= BYTES_PER_ROW * rows, live / rows


def test_the_scan_index_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.filters.matching")
