"""Committed goldens: what a behaviour-preserving change leaves byte-identical.

The backend-parity suite ties the asyncio backends to the simulator, so
a change that moves every backend alike passes it.  These goldens tie
the simulator to its own committed past:

* ``runner_quick.txt`` — ``python -m repro.cli experiments --quick``;
* ``failure_schedule.txt`` / ``failure_schedule_disk_store.txt`` —
  ``python -m repro.cli run failure-schedule`` without and with
  ``--disk-store``;
* ``parity_digests.json`` — per experiment of the parity suite, a SHA-256
  over its rendered report and, for every network it built, the trace in
  record order: deliveries, link traversals and drops, timestamps and
  message ids included (each network numbers its own messages);
* ``e2e_counts.json`` — every count-unit metric of the end-to-end
  benchmark's traced run (``run.run_traced(name, 1, 1, 1, scale=0.02)``)
  on the five simulator workloads, computed in a fresh interpreter with
  ``PYTHONHASHSEED=0`` as the benchmark runs itself.  ``wire_tcp`` is left
  out: its codec counts follow wall-clock timing;
* ``journal_digest.json`` — the end-to-end benchmark's ``roam_physical``
  set-up and warm-up (seed 1, scale 0.02), in a fresh interpreter with
  ``PYTHONHASHSEED=0``: per broker the number of journal records, their
  frame bytes and the SHA-256 of those frames, and the SHA-256 of
  ``encode_frame`` over every message sent on a link, message ids
  included.

A change that means to alter one rewrites them with
``pytest tests/test_goldens.py --update-goldens`` and says why.
"""

import hashlib
import json
import os
import subprocess
import sys

from repro import cli
from repro.experiments.runner import EXPERIMENTS
from tests.runtime.test_backend_parity import run_recorded

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden")


def _compare(request, name, text):
    path = os.path.join(GOLDEN, name)
    if request.config.getoption("--update-goldens"):
        os.makedirs(GOLDEN, exist_ok=True)
        with open(path, "w") as handle:
            handle.write(text)
        return
    with open(path) as handle:
        golden = handle.read()
    assert text == golden, "{} differs from its golden (see the module docstring)".format(name)


def _printed(capsys, *argv):
    """What ``python -m repro.cli *argv`` prints; its exit code must be 0."""
    assert cli.main(list(argv)) == 0
    return capsys.readouterr().out


def test_runner_quick_report(request, capsys):
    _compare(request, "runner_quick.txt", _printed(capsys, "experiments", "--quick"))


def test_failure_schedule_report(request, capsys):
    _compare(request, "failure_schedule.txt", _printed(capsys, "run", "failure-schedule"))


def test_failure_schedule_disk_store_report(request, capsys):
    printed = _printed(capsys, "run", "failure-schedule", "--disk-store")
    _compare(request, "failure_schedule_disk_store.txt", printed)


def _digest(name):
    result, fingerprints = run_recorded(name, "sim")
    hasher = hashlib.sha256(result.format_text().encode())
    for fingerprint in fingerprints:
        for section in ("deliveries", "links", "drops"):
            hasher.update(repr(fingerprint[section]).encode())
    return hasher.hexdigest()


def test_parity_experiment_digests(request):
    digests = {name: _digest(name) for name in sorted(EXPERIMENTS)}
    _compare(request, "parity_digests.json", json.dumps(digests, indent=1) + "\n")


E2E_SIM_WORKLOADS = (
    "match_selective",
    "fanout_burst",
    "roam_physical",
    "roam_logical",
    "churn_mixed",
)

_E2E_COUNTS = """
import json, sys
import run
counts = {}
for name in sys.argv[1:]:
    metrics, _, _ = run.run_traced(name, 1, 1, 1, scale=0.02)
    counts[name] = {key: value for key, (value, unit) in metrics.items() if unit == "count"}
print(json.dumps(counts, indent=1, sort_keys=True))
"""


def _run_with_e2e(program, *args):
    """Stdout of *program*, run with the e2e benchmark's modules importable."""
    path = os.pathsep.join([os.path.join(ROOT, "benchmarks", "e2e"), os.path.join(ROOT, "src")])
    done = subprocess.run(
        [sys.executable, "-c", program, *args],
        env=dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=path),
        cwd=ROOT,
        stdout=subprocess.PIPE,
        timeout=120,
        check=True,
    )
    return done.stdout.decode()


def test_e2e_traced_counts(request):
    _compare(request, "e2e_counts.json", _run_with_e2e(_E2E_COUNTS, *E2E_SIM_WORKLOADS))


_JOURNAL_DIGEST = """
import hashlib, json
import harness
from repro.messages.wire import encode_frame
from repro.sim.network import Link
from workloads import make_workload

links = hashlib.sha256()
send = Link.send


def hashing_send(link, message):
    links.update(encode_frame(message))
    send(link, message)


Link.send = hashing_send
driver, _ = harness.set_up(make_workload("roam_physical", 1, 0.02))
harness.warm_up(driver)
journals = {}
for name, broker in sorted(driver.network.brokers.items()):
    frames = bytes(broker.recovery._frames)
    journals[name] = [broker.recovery.log_size(), len(frames), hashlib.sha256(frames).hexdigest()]
driver.close()
print(json.dumps({"journals": journals, "link_frames": links.hexdigest()}, indent=1))
"""


def test_journal_and_link_frame_digest(request):
    _compare(request, "journal_digest.json", _run_with_e2e(_JOURNAL_DIGEST))
