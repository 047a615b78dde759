"""Every script under ``examples/`` runs to completion."""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES = sorted(glob.glob(os.path.join(ROOT, "examples", "*.py")))


def _run(path):
    """Run one example in a fresh interpreter, with a timeout."""
    return subprocess.run(
        [sys.executable, path],
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_examples_are_found():
    assert len(EXAMPLES) >= 5


#: Lines an example must print, by file name: the quickstart's relocation
#: guarantees.
PRINTS = {"quickstart.py": ("complete: True", "no duplicates: True", "sender FIFO: True")}


@pytest.mark.parametrize("path", EXAMPLES, ids=os.path.basename)
def test_example_exits_zero(path):
    done = _run(path)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    for line in PRINTS.get(os.path.basename(path), ()):
        assert line in lines
