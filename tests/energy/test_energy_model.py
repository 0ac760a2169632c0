"""Unit tests for the analytical energy model (the paper's equation)."""

from __future__ import annotations

import pytest

from repro.core.scheduler import BlockScheduler
from repro.energy.model import EnergyBreakdown, EnergyModel, energy_of
from repro.errors import AnalysisError
from repro.graph.workload import autoregressive
from repro.hw.presets import siracusa_platform
from repro.sim import simulate_block


class TestEnergyBreakdown:
    def test_total_is_sum_of_components(self):
        breakdown = EnergyBreakdown(
            compute=1e-3, l2_l1=2e-6, l3_l2=3e-4, chip_to_chip=5e-6
        )
        assert breakdown.total == pytest.approx(1e-3 + 2e-6 + 3e-4 + 5e-6)

    def test_addition(self):
        a = EnergyBreakdown(compute=1.0, l2_l1=2.0, l3_l2=3.0, chip_to_chip=4.0)
        b = EnergyBreakdown(compute=0.5, l2_l1=0.5, l3_l2=0.5, chip_to_chip=0.5)
        total = a + b
        assert total.compute == 1.5 and total.chip_to_chip == 4.5

    def test_negative_component_rejected(self):
        with pytest.raises(AnalysisError):
            EnergyBreakdown(compute=-1.0, l2_l1=0, l3_l2=0, chip_to_chip=0)


class TestEnergyModel:
    @pytest.fixture
    def simulation(self, autoregressive_workload, eight_chip_platform):
        program = BlockScheduler(platform=eight_chip_platform).build(
            autoregressive_workload
        )
        return simulate_block(program)

    def test_paper_equation_components(self, simulation, eight_chip_platform):
        """Recompute each term of the paper's equation by hand."""
        report = EnergyModel(eight_chip_platform).from_simulation(simulation)
        chip = eight_chip_platform.chip
        cluster = chip.cluster

        expected_compute = sum(
            cluster.power_w * trace.compute_cycles / cluster.frequency_hz
            for trace in simulation.chip_traces.values()
        )
        expected_l3 = simulation.total_l3_l2_bytes * 100e-12
        expected_l2 = simulation.total_l2_l1_bytes * 2e-12
        expected_c2c = simulation.total_c2c_bytes * 100e-12

        assert report.total.compute == pytest.approx(expected_compute)
        assert report.total.l3_l2 == pytest.approx(expected_l3)
        assert report.total.l2_l1 == pytest.approx(expected_l2)
        assert report.total.chip_to_chip == pytest.approx(expected_c2c)
        assert report.total_joules == pytest.approx(
            expected_compute + expected_l3 + expected_l2 + expected_c2c
        )

    def test_per_chip_breakdowns_sum_to_total(self, simulation, eight_chip_platform):
        report = EnergyModel(eight_chip_platform).from_simulation(simulation)
        summed = sum(breakdown.total for breakdown in report.per_chip.values())
        assert summed == pytest.approx(report.total_joules)
        assert set(report.per_chip) == set(range(8))

    def test_edp_is_energy_times_runtime(self, simulation, eight_chip_platform):
        report = EnergyModel(eight_chip_platform).from_simulation(simulation)
        assert report.energy_delay_product == pytest.approx(
            report.total_joules * simulation.runtime_seconds
        )

    def test_energy_of_convenience_wrapper(self, simulation):
        direct = energy_of(simulation)
        assert direct.total_joules > 0

    def test_mismatched_platform_rejected(self, simulation):
        import dataclasses

        other = siracusa_platform(8)
        different_chip = dataclasses.replace(
            other.chip,
            cluster=dataclasses.replace(other.chip.cluster, num_cores=4),
        )
        other = dataclasses.replace(other, chip=different_chip)
        with pytest.raises(AnalysisError):
            EnergyModel(other).from_simulation(simulation)

    def test_headline_energy_scale(self, simulation, eight_chip_platform):
        """The per-block energy lands in the paper's sub-millijoule range."""
        report = EnergyModel(eight_chip_platform).from_simulation(simulation)
        assert 0.2e-3 < report.total_joules < 1.5e-3
        # Off-chip traffic dominates the energy, as the paper argues.
        assert report.total.l3_l2 > report.total.chip_to_chip
