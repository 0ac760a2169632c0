"""Unit tests for the evaluation API and the derived metrics."""

from __future__ import annotations

import pytest

from repro.analysis.evaluate import evaluate_block
from repro.analysis.metrics import (
    edp_improvement,
    energy_ratio,
    is_super_linear,
    parallel_efficiency,
    scaling_points,
    speedup,
)
from repro.api import Session
from repro.core.placement import PrefetchAccounting, WeightResidency
from repro.core.schedule import RuntimeCategory
from repro.errors import AnalysisError
from repro.graph.workload import autoregressive, prompt
from repro.hw.presets import siracusa_platform
from repro.models import tinyllama_42m


class TestEvaluateBlock:
    @pytest.fixture(scope="class")
    def report(self):
        return evaluate_block(
            autoregressive(tinyllama_42m(), 128), siracusa_platform(8)
        )

    def test_basic_quantities(self, report):
        assert report.num_chips == 8
        assert report.block_cycles > 0
        assert report.block_runtime_seconds == pytest.approx(
            report.block_cycles / 500e6
        )
        assert report.block_energy_joules > 0
        assert report.energy_delay_product == pytest.approx(
            report.block_energy_joules * report.block_runtime_seconds
        )

    def test_inference_scales_by_layer_count(self, report):
        assert report.inference_cycles == pytest.approx(8 * report.block_cycles)
        assert report.inference_energy_joules == pytest.approx(
            8 * report.block_energy_joules
        )

    def test_residencies_reported_per_chip(self, report):
        residencies = report.residencies()
        assert set(residencies) == set(range(8))
        assert all(
            residency is WeightResidency.DOUBLE_BUFFERED
            for residency in residencies.values()
        )
        assert report.runs_from_on_chip_memory

    def test_breakdown_keys(self, report):
        breakdown = report.runtime_breakdown()
        assert set(breakdown) == set(RuntimeCategory)

    def test_summary_mentions_workload_and_chips(self, report):
        text = report.summary()
        assert "8 chip" in text and "tinyllama" in text

    def test_prefetch_accounting_changes_runtime_not_traffic(self):
        workload = autoregressive(tinyllama_42m(), 128)
        platform = siracusa_platform(8)
        hidden = evaluate_block(
            workload, platform, prefetch_accounting=PrefetchAccounting.HIDDEN
        )
        blocking = evaluate_block(
            workload, platform, prefetch_accounting=PrefetchAccounting.BLOCKING
        )
        assert blocking.block_cycles > hidden.block_cycles
        assert blocking.total_l3_bytes == hidden.total_l3_bytes


class TestMetrics:
    def test_speedup(self):
        assert speedup(100, 25) == 4.0
        with pytest.raises(AnalysisError):
            speedup(100, 0)

    def test_energy_ratio(self):
        assert energy_ratio(2.0, 1.0) == 2.0
        with pytest.raises(AnalysisError):
            energy_ratio(1.0, 0)

    def test_edp_improvement(self):
        assert edp_improvement(27.2, 1.0) == pytest.approx(27.2)
        with pytest.raises(AnalysisError):
            edp_improvement(1.0, -1.0)

    def test_super_linearity(self):
        assert is_super_linear(26.1, 8)
        assert not is_super_linear(7.9, 8)
        assert parallel_efficiency(26.1, 8) == pytest.approx(26.1 / 8)
        with pytest.raises(AnalysisError):
            is_super_linear(1.0, 0)

    def test_scaling_points_normalise_to_first_entry(self):
        workload = autoregressive(tinyllama_42m(), 128)
        points = scaling_points(Session().sweep(workload, (1, 8)).results)
        assert points[0].speedup == pytest.approx(1.0)
        assert points[0].energy_improvement == pytest.approx(1.0)
        assert points[1].num_chips == 8
        assert points[1].speedup > 8
        assert points[1].is_super_linear
        assert points[1].parallel_efficiency > 1.0

    def test_scaling_points_reject_mixed_workloads(self):
        session = Session()
        results = [
            session.run(autoregressive(tinyllama_42m(), 128), chips=1),
            session.run(prompt(tinyllama_42m(), 16), chips=1),
        ]
        with pytest.raises(AnalysisError, match="mixes"):
            scaling_points(results)

    def test_scaling_points_reject_empty(self):
        with pytest.raises(AnalysisError):
            scaling_points([])
