"""Shared configuration for the benchmark harness.

Every benchmark regenerates one figure or table of the paper, each one a
shipped study.  The underlying studies are deterministic analytical
simulations, so a
single round per benchmark is enough; the value of the harness is the
printed series (compared against the paper in EXPERIMENTS.md) and the
shape assertions, not statistical timing.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

# The event-engine oracle (``tests/sim_oracle.py``) is test support that
# the component benchmarks time as well.
_TESTS = str(Path(__file__).resolve().parent.parent / "tests")
if _TESTS not in sys.path:
    sys.path.insert(0, _TESTS)


@pytest.fixture
def run_once(benchmark):
    """Run a callable exactly once under pytest-benchmark and return its result."""

    def _run(function, *args, **kwargs):
        return benchmark.pedantic(
            function, args=args, kwargs=kwargs, rounds=1, iterations=1
        )

    return _run


@pytest.fixture
def run_study(run_once):
    """Run the shipped study ``name`` exactly once and return its result."""
    from repro.api import Study
    from repro.spec import get_study

    def _run(name):
        return run_once(lambda: Study(get_study(name)).run())

    return _run
