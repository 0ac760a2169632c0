"""Unit tests for session chip-count sweeps and the plain-text table renderers."""

from __future__ import annotations

import pytest

from repro.analysis.metrics import scaling_points
from repro.analysis.tables import (
    comparison_table,
    energy_runtime_table,
    format_table,
    runtime_breakdown_table,
    scaling_table,
)
from repro.api import EvalSweep, Session
from repro.errors import AnalysisError
from repro.graph.workload import autoregressive
from repro.models import tinyllama_42m


@pytest.fixture(scope="module")
def small_sweep():
    workload = autoregressive(tinyllama_42m(), 128)
    return Session().sweep(workload, (1, 8))


class TestSessionSweep:
    def test_sweep_structure(self, small_sweep):
        assert small_sweep.chip_counts == [1, 8]
        assert small_sweep.baseline.num_chips == 1
        assert small_sweep.result_for(8).num_chips == 8
        with pytest.raises(AnalysisError):
            small_sweep.result_for(3)

    def test_speedups_and_energies(self, small_sweep):
        speedups = small_sweep.speedups()
        assert speedups[1] == pytest.approx(1.0)
        assert speedups[8] > 8
        energies = small_sweep.energies_joules()
        assert set(energies) == {1, 8}
        cycles = small_sweep.cycles()
        assert cycles[8] < cycles[1]

    def test_every_result_carries_a_breakdown(self, small_sweep):
        for result in small_sweep.results:
            assert sum(result.runtime_breakdown().values()) > 0

    def test_sweep_caches_repeated_points(self):
        workload = autoregressive(tinyllama_42m(), 128)
        session = Session()
        first = session.sweep(workload, (8,)).result_for(8)
        second = session.sweep(workload, (8,)).result_for(8)
        assert first is second

    def test_sweep_requires_results(self):
        workload = autoregressive(tinyllama_42m(), 128)
        with pytest.raises(AnalysisError):
            EvalSweep(workload=workload, strategy="paper", results=())


class TestTables:
    def test_format_table_alignment(self):
        table = format_table(["A", "Long header"], [["1", "2"], ["333", "4"]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines)

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["A", "B"], [["1"]])

    def test_runtime_breakdown_table_contents(self, small_sweep):
        table = runtime_breakdown_table(small_sweep)
        assert "Chips" in table and "Computation" in table and "Speedup" in table
        assert "1.00x" in table
        # One row per chip count plus header and separator.
        assert len(table.splitlines()) == 2 + 2

    def test_energy_runtime_table_contents(self, small_sweep):
        table = energy_runtime_table(small_sweep)
        assert "Energy/block" in table and "L3 traffic" in table
        assert "MiB" in table

    def test_scaling_table_contents(self, small_sweep):
        table = scaling_table(scaling_points(small_sweep.results), title="Scaling")
        assert table.startswith("Scaling")
        assert "Efficiency" in table and "EDP gain" in table

    def test_comparison_table_fills_missing_cells(self):
        table = comparison_table(
            {"Ours": {"Platform": "MCU"}}, headers=["Platform", "Pipelining"]
        )
        assert "MCU" in table
        assert "-" in table
