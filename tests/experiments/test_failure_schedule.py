"""The failure-schedule scenario family meets its acceptance bars."""

import os
import subprocess
import sys

from repro.experiments import failure_schedule

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")


def test_crash_restart_scenario_holds_durable_guarantees():
    result = failure_schedule.run_crash_restart()
    assert result.durable_guarantees_hold
    assert result.delivered_total == result.expected_total
    assert result.tables_identical
    assert result.log_replayed > 0
    assert result.report.durable_zero_loss
    assert result.report.routing_rows > 0


def test_crash_is_detected_not_scripted():
    result = failure_schedule.run_crash_restart()
    assert result.detected
    assert result.detected_by == "B2"
    assert result.detection_time is not None
    # The in-flight publish round died inside the dark broker and came
    # back through the neighbour's retained forwarding window.
    assert result.report.retention_replayed > 0
    assert result.report.gap_ranges == {}


def test_disk_backed_store_reproduces_the_memory_report(tmp_path):
    memory = failure_schedule.run_crash_restart()
    disk = failure_schedule.run_crash_restart(
        failure_schedule.FailureScheduleConfig(storage_dir=str(tmp_path))
    )
    assert disk.durable_guarantees_hold
    assert disk.format_text() == memory.format_text()
    # ...but the disk run actually hit the file system.
    assert disk.report.store_counters["disk_bytes_written"] > 0
    assert memory.report.store_counters == {}


def test_partition_scenario_attributes_every_loss():
    result = failure_schedule.run_partition()
    assert result.lost > 0
    assert result.loss_fully_attributed
    assert result.dropped == {"partition": result.lost}


def test_family_runner_passes_and_renders():
    result = failure_schedule.run()
    assert result.passed
    text = result.format_text()
    assert "crash/restart with durable subscribers" in text
    assert "scheduled link partition" in text


def test_report_to_dict_is_json_friendly():
    import json

    result = failure_schedule.run_crash_restart()
    payload = json.dumps(result.report.to_dict())
    assert "durable_zero_loss" in payload


def test_module_entry_point_runs_one_copy_of_the_module():
    """``python -m repro.cli`` imports the ``repro`` package first.  If the
    package imported the module too, runpy would warn and execute a second
    copy of it; here that warning is an error."""
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning:runpy", "-m", "repro.cli", "--help"],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "experiments" in done.stdout
