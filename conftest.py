"""Repository-level pytest configuration.

Ensures the ``src`` layout is importable even when the package has not
been installed (offline environments without ``wheel`` cannot run
``pip install -e .``; ``python setup.py develop`` or this fallback both
work).
"""

import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="rewrite tests/golden/ from this checkout instead of comparing against it",
    )
