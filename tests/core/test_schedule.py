"""Unit tests for the schedule data structures and their validation."""

from __future__ import annotations

import pytest

from repro.core.partition import partition_block
from repro.core.placement import MemoryPlan, WeightResidency
from repro.core.schedule import (
    BlockProgram,
    ChipSchedule,
    ComputeStep,
    DmaChannelName,
    DmaStep,
    PrefetchStep,
    RecvStep,
    SendStep,
)
from repro.errors import SchedulingError
from repro.graph.workload import autoregressive
from repro.hw.presets import siracusa_platform
from repro.models import tinyllama_42m


def make_plan(chip_id: int) -> MemoryPlan:
    return MemoryPlan(
        chip_id=chip_id,
        residency=WeightResidency.STREAMED,
        l2_budget_bytes=1024,
        required_bytes=512,
        block_weight_bytes=4096,
        l3_weight_bytes_per_block=4096,
    )


class TestSteps:
    def test_negative_compute_rejected(self):
        with pytest.raises(SchedulingError):
            ComputeStep(name="bad", compute_cycles=-1)

    def test_negative_dma_rejected(self):
        with pytest.raises(SchedulingError):
            DmaStep(name="bad", channel=DmaChannelName.L3_L2, num_bytes=-1)
        with pytest.raises(SchedulingError):
            DmaStep(
                name="bad", channel=DmaChannelName.L3_L2, num_bytes=4, num_transfers=0
            )

    def test_negative_message_rejected(self):
        with pytest.raises(SchedulingError):
            SendStep(name="bad", dst=1, num_bytes=-1, tag="t")
        with pytest.raises(SchedulingError):
            RecvStep(name="bad", src=1, num_bytes=-1, tag="t")

    def test_prefetch_negative_rejected(self):
        with pytest.raises(SchedulingError):
            PrefetchStep(name="bad", num_bytes=-1)

    def test_schedule_type_filter(self):
        schedule = ChipSchedule(
            chip_id=0,
            steps=(
                ComputeStep(name="c", compute_cycles=1),
                DmaStep(name="d", channel=DmaChannelName.L2_L1, num_bytes=8),
                ComputeStep(name="c2", compute_cycles=2),
            ),
        )
        assert schedule.num_steps == 3
        assert len(schedule.steps_of_type(ComputeStep)) == 2


class TestBlockProgramValidation:
    def _program(self, schedules, plans=None):
        platform = siracusa_platform(2)
        workload = autoregressive(tinyllama_42m(), 128)
        partition = partition_block(workload.config, 2)
        plans = plans or {0: make_plan(0), 1: make_plan(1)}
        return BlockProgram(
            workload=workload,
            platform=platform,
            partition=partition,
            memory_plans=plans,
            schedules=schedules,
        )

    def test_missing_schedule_rejected(self):
        with pytest.raises(SchedulingError, match="one schedule per platform chip"):
            self._program({0: ChipSchedule(chip_id=0, steps=())})

    def test_unmatched_send_rejected(self):
        schedules = {
            0: ChipSchedule(chip_id=0, steps=()),
            1: ChipSchedule(
                chip_id=1,
                steps=(SendStep(name="s", dst=0, num_bytes=4, tag="lonely"),),
            ),
        }
        with pytest.raises(SchedulingError, match="unmatched"):
            self._program(schedules)

    def test_matched_messages_accepted(self):
        schedules = {
            0: ChipSchedule(
                chip_id=0,
                steps=(RecvStep(name="r", src=1, num_bytes=4, tag="ok"),),
            ),
            1: ChipSchedule(
                chip_id=1,
                steps=(SendStep(name="s", dst=0, num_bytes=4, tag="ok"),),
            ),
        }
        program = self._program(schedules)
        assert program.total_c2c_bytes == 4
        assert program.chip_ids == [0, 1]

    def test_plan_and_schedule_lookup(self):
        schedules = {
            0: ChipSchedule(chip_id=0, steps=()),
            1: ChipSchedule(chip_id=1, steps=()),
        }
        program = self._program(schedules)
        assert program.schedule(1).chip_id == 1
        assert program.memory_plan(0).chip_id == 0
        with pytest.raises(SchedulingError):
            program.schedule(5)
        with pytest.raises(SchedulingError):
            program.memory_plan(5)
