from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import settings

# A failing property prints its ``@reproduce_failure`` line, so that a CI
# log holds what it takes to replay a failure that a shrunk example alone
# does not reproduce (a sequence of configs on one session object, say).
settings.register_profile("gazescore", print_blob=True)
settings.load_profile("gazescore")


@pytest.fixture(scope="session")
def tracker():
    """``perfbench/tracker.py``, the seeded model of a real tracker's log,
    imported by path (``perfbench`` is not a package)."""
    name = "perfbench_tracker"
    if name not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracker.py"
        spec = importlib.util.spec_from_file_location(name, path)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]
