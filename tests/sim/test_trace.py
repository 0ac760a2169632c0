"""Unit tests for simulation traces and their aggregation."""

from __future__ import annotations

import pytest

from repro.core.schedule import RuntimeCategory
from repro.core.scheduler import BlockScheduler
from repro.errors import SimulationError
from repro.sim import simulate_block
from repro.sim.trace import ChipTrace


class TestChipTrace:
    def test_add_accumulates_by_category(self):
        trace = ChipTrace(chip_id=0)
        trace.add(RuntimeCategory.COMPUTE, 100)
        trace.add(RuntimeCategory.COMPUTE, 50)
        trace.add(RuntimeCategory.IDLE, 10)
        assert trace.compute_cycles == 150
        assert trace.busy_cycles == 150
        assert trace.cycles[RuntimeCategory.IDLE] == 10

    def test_add_zero_is_noop(self):
        trace = ChipTrace(chip_id=0)
        trace.add(RuntimeCategory.COMPUTE, 0)
        assert trace.compute_cycles == 0
        assert not trace.events

    def test_negative_cycles_rejected(self):
        trace = ChipTrace(chip_id=0)
        with pytest.raises(SimulationError):
            trace.add(RuntimeCategory.COMPUTE, -1)

    def test_events_recorded_with_spans(self):
        trace = ChipTrace(chip_id=0)
        trace.add(RuntimeCategory.DMA_L3_L2, 40, name="load", start_cycle=10)
        assert len(trace.events) == 1
        event = trace.events[0]
        assert event.start_cycle == 10
        assert event.end_cycle == 50
        assert event.duration == 40
        assert event.category is RuntimeCategory.DMA_L3_L2


class TestSimulationResultViews:
    @pytest.fixture
    def result(self, autoregressive_workload, eight_chip_platform):
        program = BlockScheduler(platform=eight_chip_platform).build(
            autoregressive_workload
        )
        return simulate_block(program)

    def test_runtime_seconds(self, result):
        assert result.runtime_seconds == pytest.approx(
            result.total_cycles / 500e6
        )

    def test_breakdown_average_covers_all_categories(self, result):
        breakdown = result.breakdown_average()
        assert set(breakdown) == set(RuntimeCategory)
        assert breakdown[RuntimeCategory.COMPUTE] > 0

    def test_breakdown_of_critical_chip_bounded_by_runtime(self, result):
        breakdown = result.breakdown_of_critical_chip()
        assert sum(breakdown.values()) <= result.total_cycles * 1.0001

    def test_traffic_totals_are_sums(self, result):
        assert result.total_l3_l2_bytes == pytest.approx(
            sum(t.l3_l2_bytes for t in result.chip_traces.values())
        )
        assert result.total_l2_l1_bytes == pytest.approx(
            sum(t.l2_l1_bytes for t in result.chip_traces.values())
        )
        assert result.total_c2c_bytes == pytest.approx(
            sum(t.c2c_bytes_sent for t in result.chip_traces.values())
        )

    def test_total_compute_cycles(self, result):
        assert result.total_compute_cycles == pytest.approx(
            sum(t.compute_cycles for t in result.chip_traces.values())
        )

    def test_unknown_chip_rejected(self, result):
        with pytest.raises(SimulationError):
            result.chip_trace(99)

    def test_finish_cycles_bounded_by_total(self, result):
        assert all(
            trace.finish_cycle <= result.total_cycles
            for trace in result.chip_traces.values()
        )
        assert max(
            trace.finish_cycle for trace in result.chip_traces.values()
        ) == pytest.approx(result.total_cycles)
