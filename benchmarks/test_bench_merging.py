"""Merging benchmark: roaming location-dependent subscriptions.

Location-dependent subscriptions are the paper's perfect-merge case: the
per-hop filters of a roaming client differ only in their ``location ∈
ploc(x, q)`` constraint (§5.1), so merging-based routing collapses a whole
neighbourhood of window subscriptions into one union filter per link.
This workload reproduces the Figure 5 shape — a broker tree, overlapping
``ploc`` window subscriptions, then a roaming phase in which clients hop
along a location chain (modelled as the resubscribe baseline does it:
subscribe the shifted window, unsubscribe the old one) — under the
``merging`` strategy, twice:

* on the production path, where each ``NeighbourForwardingState``
  re-runs ``merge_filters`` after a structural change through the
  network's bounded merge-pair cache, so only pairs involving changed
  filters (or the merge products they create) are evaluated raw;
* on the from-scratch specification of ``tests/oracles/forwarding.py``
  (``scratch_forwarding()``), which re-runs the greedy merge on every
  refresh.

Both must produce **byte-identical** routing behaviour (admin message
counts, routing-table sizes, deliveries).  The hard criterion is the
deterministic count of raw merge-pair evaluations (the network's
merge-pair cache misses; the specification counts its own): the
production path must do at least 5×
fewer than from-scratch (the observed ratio is far higher; see
``BENCH_merging.json``), enforced in CI by ``benchmarks/check_bench.py``
via the ``merge_eval_ratio`` field.
"""

import time

from repro.broker.network import PubSubNetwork
from repro.metrics.counters import MessageCounter
from repro.sim.rng import DeterministicRandom
from repro.topology.builders import balanced_tree_topology

from tests.oracles.forwarding import scratch_forwarding

LOCATIONS = ["loc-{:02d}".format(index) for index in range(24)]
WINDOW_SPAN = 3

SUBSCRIBERS_PER_LEAF = 25  # 3 populated leaves -> 75 overlapping windows
ROAMING_CLIENTS = 15
ROAM_HOPS = 8

def _window(start):
    return {
        "service": "parking",
        "location": ("in", LOCATIONS[start : start + WINDOW_SPAN]),
    }


def _run_roaming_workload(work=None):
    """Tree + ploc-window subscribers + roaming chains; behaviour + cost.

    The raw merge evaluations are the network's merge-pair cache misses,
    plus — on the specification (``with scratch_forwarding() as work``) —
    the ones *work* counted.
    """
    topology = balanced_tree_topology(depth=3, fanout=2)
    network = PubSubNetwork(topology, strategy="merging", latency=0.005)
    caches = network.filter_caches

    def merge_evals():
        return caches.merge_pairs.misses + (work.merge_calls if work else 0)

    leaves = topology.leaves()
    producer = network.add_client("producer", leaves[0])
    producer.advertise({"service": "parking"})
    network.settle()

    started = time.perf_counter()
    rng = DeterministicRandom(23)
    clients = []
    positions = {}
    subscription_ids = {}
    for leaf_index, leaf in enumerate(leaves[1:4]):
        for client_index in range(SUBSCRIBERS_PER_LEAF):
            client = network.add_client("c-{}-{}".format(leaf_index, client_index), leaf)
            start = rng.randint(0, len(LOCATIONS) - WINDOW_SPAN)
            positions[client.client_id] = start
            subscription_ids[client.client_id] = client.subscribe(_window(start))
            clients.append(client)
    network.settle()
    setup_merge_evals = merge_evals()

    # Roaming phase: each roamer walks a chain of adjacent locations; every
    # hop slides its ploc window by one (subscribe new, unsubscribe old —
    # the resubscribe-style roam of the paper's baselines).  Measured
    # separately: this is the steady-state "per routing change" cost the
    # acceptance criterion gates on.
    roam_changes = 0
    for hop in range(ROAM_HOPS):
        for client in clients[:ROAMING_CLIENTS]:
            start = (positions[client.client_id] + 1) % (len(LOCATIONS) - WINDOW_SPAN)
            positions[client.client_id] = start
            new_id = client.subscribe(_window(start))
            client.unsubscribe(subscription_ids[client.client_id])
            subscription_ids[client.client_id] = new_id
            roam_changes += 2
        network.settle()
    settle_seconds = time.perf_counter() - started

    for index in range(10):
        producer.publish(
            {"service": "parking", "location": LOCATIONS[index % len(LOCATIONS)], "index": index}
        )
    network.settle()

    counter = MessageCounter(network.trace)
    return {
        "settle_seconds": settle_seconds,
        "setup_merge_evals": setup_merge_evals,
        "roam_merge_evals": merge_evals() - setup_merge_evals,
        "roam_changes": roam_changes,
        "covering_calls": caches.covering.misses,
        "admin_messages": counter.breakdown().admin,
        "delivered": sum(len(client.received) for client in clients),
        "table_sizes": network.routing_table_sizes(),
        "pair_cache_stats": caches.merge_pairs.stats(),
    }


def test_merging_roam_speedup_and_equivalence(benchmark):
    """Delta-maintained vs from-scratch merging: fewer evals, same behaviour."""
    delta = benchmark.pedantic(_run_roaming_workload, iterations=1, rounds=1)
    with scratch_forwarding() as work:
        scratch = _run_roaming_workload(work)

    assert delta["admin_messages"] == scratch["admin_messages"]
    assert delta["table_sizes"] == scratch["table_sizes"]
    assert delta["delivered"] == scratch["delivered"]

    eval_ratio = scratch["roam_merge_evals"] / max(delta["roam_merge_evals"], 1)
    benchmark.extra_info.update(
        {
            "subscriptions": 3 * SUBSCRIBERS_PER_LEAF,
            "roam_changes": delta["roam_changes"],
            "merge_evals_delta": delta["roam_merge_evals"],
            "merge_evals_scratch": scratch["roam_merge_evals"],
            "merge_evals_setup_delta": delta["setup_merge_evals"],
            "merge_eval_ratio": round(eval_ratio, 1),
            "covering_calls_delta": delta["covering_calls"],
            "admin_messages": delta["admin_messages"],
            "settle_seconds_delta": round(delta["settle_seconds"], 4),
            "settle_seconds_scratch": round(scratch["settle_seconds"], 4),
            "cache_hits_merge_pair": delta["pair_cache_stats"]["hits"],
            "cache_misses_merge_pair": delta["pair_cache_stats"]["misses"],
        }
    )
    # The raw merge-evaluation counts are deterministic (seeded workload):
    # the hard acceptance criterion is >= 5x fewer evaluations per routing
    # change than from-scratch on the roaming phase (observed ~13x; see
    # BENCH_merging.json).  Wall time is recorded, not gated.
    assert eval_ratio >= 5.0
    # The steady-state cost per routing change stays O(1)-ish: the whole
    # roam phase (120 subscribe/unsubscribe pairs rippling through 15
    # brokers) must average out to a handful of raw evals per change.
    assert delta["roam_merge_evals"] / delta["roam_changes"] <= 5.0
    assert delta["delivered"] > 0
