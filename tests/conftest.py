from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest


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
