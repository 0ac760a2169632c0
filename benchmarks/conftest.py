"""Shared configuration for the benchmark harness.

The benchmarks time components, ablations, design-space search, serving
and the session's overhead.  The paper's figures and tables are not
benchmarked here: the paper golden pins their numbers and
``tests/integration/test_paper_shapes.py`` their shape.  The evaluations
are deterministic analytical simulations, so a single round per
benchmark is enough.
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
