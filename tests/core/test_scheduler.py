"""Unit tests for the block scheduler."""

from __future__ import annotations

import pytest

from repro.core.partition import partition_block
from repro.core.placement import PrefetchAccounting, WeightResidency
from repro.core.schedule import (
    ComputeStep,
    DmaChannelName,
    DmaStep,
    PrefetchJoinStep,
    PrefetchStep,
    RecvStep,
    SendStep,
)
from repro.core.scheduler import BlockScheduler
from repro.errors import SchedulingError
from repro.graph.workload import autoregressive, encoder
from repro.hw.presets import siracusa_platform
from repro.models import mobilebert, tinyllama_42m


class TestProgramStructure:
    def test_one_schedule_per_chip(self, autoregressive_workload, eight_chip_platform):
        program = BlockScheduler(platform=eight_chip_platform).build(
            autoregressive_workload
        )
        assert set(program.schedules) == set(range(8))
        assert set(program.memory_plans) == set(range(8))

    def test_two_synchronisations_per_block(
        self, autoregressive_workload, eight_chip_platform
    ):
        """Each non-root chip sends exactly twice per block (MHSA + FFN)."""
        program = BlockScheduler(platform=eight_chip_platform).build(
            autoregressive_workload
        )
        # Leaf chips (not group leaders): exactly one send per synchronisation
        # for the reduce, plus one receive per synchronisation for the
        # broadcast.
        leaf = program.schedule(3)
        sends = leaf.steps_of_type(SendStep)
        recvs = leaf.steps_of_type(RecvStep)
        assert len(sends) == 2
        assert len(recvs) == 2

    def test_single_chip_has_no_messages(
        self, autoregressive_workload, single_chip_platform
    ):
        program = BlockScheduler(platform=single_chip_platform).build(
            autoregressive_workload
        )
        schedule = program.schedule(0)
        assert not schedule.steps_of_type(SendStep)
        assert not schedule.steps_of_type(RecvStep)
        assert program.total_c2c_bytes == 0

    def test_root_runs_norms_and_residuals(
        self, autoregressive_workload, eight_chip_platform
    ):
        program = BlockScheduler(platform=eight_chip_platform).build(
            autoregressive_workload
        )
        root_names = [step.name for step in program.schedule(0).steps]
        worker_names = [step.name for step in program.schedule(3).steps]
        assert any("norm" in name for name in root_names)
        assert any("residual_add" in name for name in root_names)
        assert not any("norm" in name for name in worker_names)
        assert not any("residual_add" in name for name in worker_names)

    def test_partition_platform_mismatch_rejected(self, autoregressive_workload):
        scheduler = BlockScheduler(platform=siracusa_platform(4))
        partition = partition_block(autoregressive_workload.config, 8)
        with pytest.raises(SchedulingError, match="platform"):
            scheduler.build(autoregressive_workload, partition=partition)


class TestWeightStaging:
    def test_streamed_regime_emits_blocking_l3_dma(self, single_chip_platform):
        workload = autoregressive(tinyllama_42m(), 128)
        program = BlockScheduler(platform=single_chip_platform).build(workload)
        assert program.memory_plan(0).residency is WeightResidency.STREAMED
        schedule = program.schedule(0)
        dma_steps = [
            step
            for step in schedule.steps_of_type(DmaStep)
            if step.channel is DmaChannelName.L3_L2
        ]
        assert dma_steps
        total_streamed = sum(step.num_bytes for step in dma_steps)
        # Every weight byte of the block crosses L3 at least once.
        assert total_streamed >= workload.config.block_weight_bytes
        # In the streamed regime the weight-bearing kernels do not overlap
        # their staging (the post-reduction element-wise steps still may).
        assert all(
            not step.overlap_dma
            for step in schedule.steps_of_type(ComputeStep)
            if "proj" in step.name
        )

    def test_double_buffered_regime_prefetches(self, eight_chip_platform):
        workload = autoregressive(tinyllama_42m(), 128)
        program = BlockScheduler(platform=eight_chip_platform).build(workload)
        assert program.memory_plan(0).residency is WeightResidency.DOUBLE_BUFFERED
        schedule = program.schedule(0)
        prefetches = schedule.steps_of_type(PrefetchStep)
        assert len(prefetches) == 1
        assert prefetches[0].num_bytes == program.memory_plan(0).block_weight_bytes
        # With the paper's HIDDEN accounting there is no join step.
        assert not schedule.steps_of_type(PrefetchJoinStep)

    def test_overlap_accounting_adds_join(self, eight_chip_platform):
        workload = autoregressive(tinyllama_42m(), 128)
        program = BlockScheduler(
            platform=eight_chip_platform,
            prefetch_accounting=PrefetchAccounting.OVERLAP,
        ).build(workload)
        assert program.schedule(0).steps_of_type(PrefetchJoinStep)

    def test_blocking_accounting_uses_blocking_dma(self, eight_chip_platform):
        workload = autoregressive(tinyllama_42m(), 128)
        program = BlockScheduler(
            platform=eight_chip_platform,
            prefetch_accounting=PrefetchAccounting.BLOCKING,
        ).build(workload)
        schedule = program.schedule(0)
        assert not schedule.steps_of_type(PrefetchStep)
        assert any(
            step.channel is DmaChannelName.L3_L2
            for step in schedule.steps_of_type(DmaStep)
        )

    def test_single_buffered_regime_loads_block_up_front(self, four_chip_platform):
        workload = autoregressive(tinyllama_42m(), 128)
        program = BlockScheduler(platform=four_chip_platform).build(workload)
        assert program.memory_plan(0).residency is WeightResidency.SINGLE_BUFFERED
        first_dma = program.schedule(0).steps_of_type(DmaStep)[0]
        assert first_dma.name == "weights.load_block"
        assert first_dma.num_bytes == program.memory_plan(0).block_weight_bytes


class TestCommunicationPayloads:
    def test_reduce_payload_matches_partial_output(self, eight_chip_platform):
        workload = encoder(mobilebert(), 268)
        platform = siracusa_platform(4)
        program = BlockScheduler(platform=platform).build(workload)
        expected = 268 * 512  # S x E int8 partial output
        sends = program.schedule(1).steps_of_type(SendStep)
        assert all(step.num_bytes == expected for step in sends)

    def test_total_c2c_bytes_scale_with_chips(self):
        workload = autoregressive(tinyllama_42m(), 128)
        smaller = BlockScheduler(platform=siracusa_platform(2)).build(workload)
        larger = BlockScheduler(platform=siracusa_platform(8)).build(workload)
        assert larger.total_c2c_bytes > smaller.total_c2c_bytes
