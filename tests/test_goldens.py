"""Committed goldens: what a behaviour-preserving change leaves byte-identical.

The backend-parity suite ties the asyncio backends to the simulator, so
a change that moves every backend alike passes it.  These goldens tie
the simulator to its own committed past:

* ``runner_quick.txt`` — ``python -m repro.experiments.runner --quick``;
* ``failure_schedule.txt`` / ``failure_schedule_disk_store.txt`` —
  ``python -m repro.experiments.failure_schedule`` without and with
  ``--disk-store``;
* ``parity_digests.json`` — per experiment of the parity suite, a SHA-256
  over its rendered report and, for every network it built, the trace in
  record order: deliveries, link traversals and drops, timestamps
  included and message ids excluded (ids come from a process-wide
  counter).

A change that means to alter one rewrites them with
``pytest tests/test_goldens.py --update-goldens`` and says why.
"""

import hashlib
import json
import os

from repro.experiments import failure_schedule, runner
from tests.runtime.test_backend_parity import EXPERIMENTS, RecordingFactory, _trace_fingerprint

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


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


def test_runner_quick_report(request):
    report = runner.format_report(runner.run_all(quick=True))
    _compare(request, "runner_quick.txt", report + "\n")


def test_failure_schedule_report(request):
    result = failure_schedule.run()
    _compare(request, "failure_schedule.txt", result.format_text() + "\n")


def test_failure_schedule_disk_store_report(request, tmp_path):
    config = failure_schedule.FailureScheduleConfig(storage_dir=str(tmp_path))
    result = failure_schedule.run(config)
    _compare(request, "failure_schedule_disk_store.txt", result.format_text() + "\n")


def _digest(name):
    factory = RecordingFactory("sim")
    hasher = hashlib.sha256(EXPERIMENTS[name](factory).format_text().encode())
    for runtime in factory.runtimes:
        fingerprint = _trace_fingerprint(runtime.trace)
        for section in ("deliveries", "links", "drops"):
            hasher.update(repr(fingerprint[section]).encode())
    return hasher.hexdigest()


def test_parity_experiment_digests(request):
    digests = {name: _digest(name) for name in sorted(EXPERIMENTS)}
    _compare(request, "parity_digests.json", json.dumps(digests, indent=1) + "\n")
