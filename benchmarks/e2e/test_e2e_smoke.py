"""Tier-1 smoke test of the e2e benchmark: every workload, tiny, in-process.

Checks that each workload emits every end-to-end metric that
``BENCHMARK.json`` declares, that the flat oracle finds no failed
delivery or operation, that fixed-size runs repeat their counts exactly,
and that every span target of the traced run still resolves on this
commit.  The benchmark proper runs at scale 1 in its own process; see
README.md.
"""

import json

import harness
import pytest
import run
from workloads import WORKLOADS, Oracle, template_matches

SCALE = 0.02
SPEC = json.loads(run.SPEC_PATH.read_text())


def test_spec_lists_every_workload():
    assert sorted(entry["name"] for entry in SPEC["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_emits_every_metric_and_passes_the_oracle(name):
    metrics, verdict, details = run.run_untraced(name, 1, cycles=1, scale=SCALE, setup_repeats=0)
    assert sorted(metrics) == sorted(entry["name"] for entry in SPEC["end_to_end"])
    assert all(value > 0 for value in metrics.values()), metrics
    assert all(details[key] > 0 for key, _ in harness.ROUND_METRICS), details
    assert verdict["expected"] > 0
    assert verdict["failed"] == 0, verdict


def test_traced_run_resolves_every_target_and_repeats_its_counts():
    declared = {entry["name"]: entry["unit"] for entry in SPEC["per_layer"]}
    first, verdict, details = run.run_traced("roam_physical", 1, 1, 1, scale=SCALE)
    second, _, _ = run.run_traced("roam_physical", 1, 1, 1, scale=SCALE)
    assert details["unresolved"] == []
    assert verdict["failed"] == 0, verdict
    assert {name: unit for name, (_, unit) in first.items()} == declared
    assert first["broker.journal_appends"][0] > 0
    assert first["core.relocations"][0] > 0
    assert first["messages.encode_calls"][0] == 0
    for name, (value, unit) in first.items():
        if unit == "count":
            assert second[name][0] == value, name


def test_oracle_flags_loss_duplicates_and_reordering():
    oracle = Oracle()
    oracle.subscribe("c", "k", {"location": ("in", ["a", "b"]), "cost": ("<", 5)})
    oracle.subscribe("d", "k", {"cost": ("between", 1, 2)})
    for seq, (location, cost) in enumerate([("a", 1), ("b", 7), ("z", 2)], 1):
        oracle.publish(("p", seq), {"location": location, "cost": cost})
    assert oracle.expected == {("c", "k", ("p", 1)), ("d", "k", ("p", 1)), ("d", "k", ("p", 3))}
    assert oracle.verdict(sorted(oracle.expected))["failed"] == 0
    wrong = [("d", "k", ("p", 3)), ("d", "k", ("p", 1)), ("d", "k", ("p", 1)), ("c", "k", ("p", 2))]
    verdict = oracle.verdict(wrong)
    assert (verdict["missing"], verdict["duplicate"]) == (1, 1)
    assert (verdict["out_of_order"], verdict["unexpected"]) == (2, 1)
    assert not template_matches({"cost": ("<", 5)}, {"location": "a"})
