"""Tests for the command line, ``python -m repro.cli``."""

import dataclasses
import os
import subprocess
import sys

import pytest

from repro import cli
from repro.experiments.backends import Backend
from repro.experiments.runner import EXPERIMENTS

try:
    import fcntl
except ImportError:  # pragma: no cover - not a POSIX system
    fcntl = None

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden")


def _cli(*argv):
    """``python -m repro.cli *argv`` in a fresh interpreter, with a timeout."""
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        capture_output=True,
        text=True,
        timeout=60,
    )


class TestRun:
    @pytest.mark.parametrize("name", ["table1", "table3", "table4", "fig2", "fig5-single"])
    def test_prints_the_experiment_and_passes(self, name, capsys):
        assert cli.main(["run", name]) == 0
        expected = EXPERIMENTS[name].run(Backend(), False).format_text()
        assert capsys.readouterr().out == expected + "\n"

    def test_backend_changes_nothing_printed(self, capsys):
        assert cli.main(["run", "fig5-multi"]) == 0
        sim = capsys.readouterr().out
        assert cli.main(["run", "fig5-multi", "--backend", "aio-tcp"]) == 0
        assert capsys.readouterr().out == sim

    def test_telemetry_prints_the_findings_after_the_unchanged_output(self, capsys):
        argv = ["run", "failure-schedule", "--backend", "aio-tcp", "--telemetry"]
        assert cli.main(argv) == 0
        printed = capsys.readouterr().out
        with open(os.path.join(GOLDEN, "failure_schedule.txt")) as handle:
            golden = handle.read()
        assert printed.startswith(golden + "\ncollector: ")
        assert "suspected B1 dead" in printed[len(golden) :]

    def test_a_failed_verdict_exits_one(self, monkeypatch):
        failing = dataclasses.replace(EXPERIMENTS["table1"], verdict=lambda result: False)
        monkeypatch.setitem(EXPERIMENTS, "table1", failing)
        assert cli.main(["run", "table1"]) == 1


class TestUsage:
    @pytest.mark.parametrize("argv", [["--help"], ["experiments", "--help"], ["run", "--help"]])
    def test_help_prints_usage_and_runs_nothing(self, argv):
        done = _cli(*argv)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: repro")
        assert "experiments match the paper" not in done.stdout

    @pytest.mark.parametrize(
        "argv, complaint",
        [
            (["experiments", "--quik"], "unrecognized arguments: --quik"),
            (["run", "fig10"], "invalid choice: 'fig10'"),
            (["run", "fig2", "--backend", "aio"], "invalid choice: 'aio'"),
            (["run", "table1", "--disk-store"], "table1 keeps no recovery store"),
            (["experiments", "--disk-store"], "unrecognized arguments: --disk-store"),
            (["teleport"], "invalid choice: 'teleport'"),
        ],
    )
    def test_a_usage_error_exits_two_and_runs_nothing(self, argv, complaint):
        done = _cli(*argv)
        assert done.returncode == 2, (done.stdout, done.stderr)
        assert complaint in done.stderr
        assert done.stdout == ""


#: The smallest pipe Linux makes: the quick report does not fit in it.
SMALL_PIPE = 4096


@pytest.mark.skipif(not hasattr(fcntl, "F_SETPIPE_SZ"), reason="needs a resizable pipe")
def test_a_reader_leaving_after_one_line_gets_no_traceback():
    """``repro.cli experiments --quick | head -n 1``: the command is still
    writing the report when its reader goes, and ends quietly with exit 1."""
    read_end, write_end = os.pipe()
    fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, SMALL_PIPE)
    child = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "experiments", "--quick"],
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONUNBUFFERED="1"),
        stdout=write_end,
        stderr=subprocess.PIPE,
        text=True,
    )
    os.close(write_end)
    line = b""
    while not line.endswith(b"\n"):
        byte = os.read(read_end, 1)
        assert byte, "the command printed no whole line"
        line += byte
    os.close(read_end)
    _, stderr = child.communicate(timeout=60)
    assert "Traceback" not in stderr and "BrokenPipeError" not in stderr, stderr
    assert child.returncode == 1
