"""Smoke tests for the runnable examples.

The examples are part of the public deliverable, so the fast ones are
executed end to end as subprocesses (the slower sweeps are exercised
indirectly through the experiment tests and the benchmark harness).
"""

from __future__ import annotations

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str) -> str:
    """Run one example script and return its stdout."""
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True,
        text=True,
        timeout=240,
        check=True,
    )
    return result.stdout


class TestExamples:
    def test_examples_directory_contents(self):
        names = sorted(path.name for path in EXAMPLES_DIR.glob("*.py"))
        assert "quickstart.py" in names
        assert len(names) >= 3

    def test_quickstart_reports_super_linear_speedup(self):
        output = run_example("quickstart.py")
        assert "super-linear" in output
        assert "8 chip" in output
        assert "EDP improvement" in output

    def test_partition_correctness_demo_is_exact(self):
        output = run_example("partition_correctness_demo.py")
        assert "FAIL" not in output
        assert "OK" in output
        assert "3,145,728" in output  # scattered == un-partitioned parameters

    @pytest.mark.slow
    def test_scalability_study_runs(self):
        output = run_example("scalability_study.py")
        assert "64" in output and "all_resident" in output

    def test_serving_capacity_study_runs(self):
        output = run_example("serving_capacity_study.py")
        assert "SLO attainment" in output
        assert "bursty" in output
        assert "p99 TTFT" in output

    def test_platform_tuning_runs(self):
        output = run_example("platform_tuning.py")
        assert "Pareto front" in output
        assert "Cheapest platform" in output
        assert "recovered" in output
        assert "shared session cache" in output

    def test_design_space_exploration_prints_its_tables(self):
        assert run_example("design_space_exploration.py") == (
            DESIGN_SPACE_EXPLORATION_OUTPUT
        )

    def test_smart_glasses_assistant_runs(self):
        output = run_example("smart_glasses_assistant.py")
        assert "Smart-glasses assistant reply" in output
        assert "26.4x" in output
        assert "super-linear effect" in output

    def test_study_pipeline_runs(self):
        output = run_example("study_pipeline.py")
        assert "Study 'paper-pipeline': 4 stage(s)" in output
        assert "byte-identical across runs: True" in output
        assert "JSON round-trip preserves the spec: True" in output
        assert "validates: True" in output


#: What ``design_space_exploration.py`` prints; every sweep point is a
#: hardware variant, so this pins the platforms it builds.
DESIGN_SPACE_EXPLORATION_OUTPUT = """\
1) Chip-to-chip link bandwidth sweep (MobileBERT, 4 chips)
   0.125 GB/s:   25,962,864 cycles/block, speedup 3.48x over one chip
   0.250 GB/s:   22,669,680 cycles/block, speedup 3.99x over one chip
   0.500 GB/s:   21,023,088 cycles/block, speedup 4.30x over one chip
   1.000 GB/s:   20,199,792 cycles/block, speedup 4.48x over one chip
   2.000 GB/s:   19,788,144 cycles/block, speedup 4.57x over one chip

2) L2 capacity sweep (TinyLlama autoregressive, 4 chips)
   L2 =  1.00 MiB: streamed            1,535,493 cycles/block
   L2 =  1.50 MiB: single_buffered     1,417,591 cycles/block
   L2 =  2.00 MiB: single_buffered     1,417,591 cycles/block
   L2 =  3.00 MiB: double_buffered       362,871 cycles/block
   L2 =  4.00 MiB: double_buffered       362,871 cycles/block

3) Prefetch accounting policy (TinyLlama autoregressive, 8 chips)
   hidden   :      206,257 cycles/block (412.514 us), speedup  29.0x
   overlap  :      527,360 cycles/block (1.055 ms), speedup  11.3x
   blocking :      733,617 cycles/block (1.467 ms), speedup   8.2x

The paper's 26.1x assumes the next block's weight prefetch is fully hidden; \
the conservative policies show how much of the gain depends on that \
assumption.
"""
