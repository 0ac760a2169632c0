"""Unit tests for the multi-chip program simulator."""

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
    PrefetchJoinStep,
    PrefetchStep,
    RecvStep,
    RuntimeCategory,
    SendStep,
)
from repro.core.scheduler import BlockScheduler
from repro.errors import SimulationError
from repro.graph.workload import autoregressive
from repro.hw.presets import siracusa_platform
from repro.models import tinyllama_42m
from repro.sim import simulate_block


def make_plan(chip_id: int) -> MemoryPlan:
    return MemoryPlan(
        chip_id=chip_id,
        residency=WeightResidency.STREAMED,
        l2_budget_bytes=1024,
        required_bytes=512,
        block_weight_bytes=4096,
        l3_weight_bytes_per_block=4096,
    )


def make_program(schedules, num_chips=2):
    platform = siracusa_platform(num_chips)
    workload = autoregressive(tinyllama_42m(), 128)
    partition = partition_block(workload.config, num_chips)
    plans = {chip_id: make_plan(chip_id) for chip_id in range(num_chips)}
    return BlockProgram(
        workload=workload,
        platform=platform,
        partition=partition,
        memory_plans=plans,
        schedules=schedules,
    )


class TestComputeAndDmaSteps:
    def test_overlapped_compute_takes_max(self):
        # 1000 compute cycles vs 16000 bytes over 8 B/cycle (+32 setup)
        # = 2032 DMA cycles; overlapping them exposes only the excess.
        dma_cycles = 32 + 16000 / 8
        schedules = {
            0: ChipSchedule(
                chip_id=0,
                steps=(
                    ComputeStep(
                        name="k", compute_cycles=1000, l2_l1_bytes=16000,
                        overlap_dma=True,
                    ),
                ),
            ),
            1: ChipSchedule(chip_id=1, steps=()),
        }
        result = simulate_block(make_program(schedules))
        trace = result.chip_trace(0)
        assert result.total_cycles == pytest.approx(dma_cycles)
        assert trace.cycles[RuntimeCategory.COMPUTE] == pytest.approx(1000.0)
        assert trace.cycles[RuntimeCategory.DMA_L2_L1] == pytest.approx(
            dma_cycles - 1000
        )
        assert trace.l2_l1_bytes == 16000

    def test_serialised_compute_adds_dma(self):
        dma_cycles = 32 + 8000 / 8
        schedules = {
            0: ChipSchedule(
                chip_id=0,
                steps=(
                    ComputeStep(
                        name="k", compute_cycles=1000, l2_l1_bytes=8000,
                        overlap_dma=False,
                    ),
                ),
            ),
            1: ChipSchedule(chip_id=1, steps=()),
        }
        result = simulate_block(make_program(schedules))
        assert result.total_cycles == pytest.approx(1000 + dma_cycles)

    def test_blocking_l3_dma_counts_traffic_and_time(self):
        schedules = {
            0: ChipSchedule(
                chip_id=0,
                steps=(
                    DmaStep(
                        name="load",
                        channel=DmaChannelName.L3_L2,
                        num_bytes=75000,
                        num_transfers=2,
                    ),
                ),
            ),
            1: ChipSchedule(chip_id=1, steps=()),
        }
        result = simulate_block(make_program(schedules))
        trace = result.chip_trace(0)
        expected = 2 * 512 + 75000 / 0.75
        assert trace.cycles[RuntimeCategory.DMA_L3_L2] == pytest.approx(expected)
        assert trace.l3_l2_bytes == 75000
        assert result.total_l3_l2_bytes == 75000


class TestPrefetch:
    def test_prefetch_without_join_costs_no_time(self):
        schedules = {
            0: ChipSchedule(
                chip_id=0,
                steps=(
                    PrefetchStep(name="p", num_bytes=750000),
                    ComputeStep(name="k", compute_cycles=100),
                ),
            ),
            1: ChipSchedule(chip_id=1, steps=()),
        }
        result = simulate_block(make_program(schedules))
        assert result.total_cycles == pytest.approx(100.0)
        # Traffic (and therefore energy) is still accounted.
        assert result.chip_trace(0).l3_l2_bytes == 750000

    def test_prefetch_join_exposes_remaining_time(self):
        prefetch_bytes = 75000  # 100512 cycles at 0.75 B/cycle + 2 setups
        schedules = {
            0: ChipSchedule(
                chip_id=0,
                steps=(
                    PrefetchStep(name="p", num_bytes=prefetch_bytes),
                    ComputeStep(name="k", compute_cycles=40000),
                    PrefetchJoinStep(name="join"),
                ),
            ),
            1: ChipSchedule(chip_id=1, steps=()),
        }
        result = simulate_block(make_program(schedules))
        trace = result.chip_trace(0)
        prefetch_cycles = 2 * 512 + prefetch_bytes / 0.75
        assert result.total_cycles == pytest.approx(prefetch_cycles)
        assert trace.cycles[RuntimeCategory.DMA_L3_L2] == pytest.approx(
            prefetch_cycles - 40000
        )


class TestMessaging:
    def _send_recv_program(self, payload=500):
        schedules = {
            0: ChipSchedule(
                chip_id=0,
                steps=(RecvStep(name="r", src=1, num_bytes=payload, tag="m"),),
            ),
            1: ChipSchedule(
                chip_id=1,
                steps=(
                    ComputeStep(name="warmup", compute_cycles=300),
                    SendStep(name="s", dst=0, num_bytes=payload, tag="m"),
                ),
            ),
        }
        return make_program(schedules)

    def test_rendezvous_timing_and_attribution(self):
        payload = 500
        result = simulate_block(self._send_recv_program(payload))
        link_cycles = 1000 + payload  # latency + bytes at 1 B/cycle
        assert result.total_cycles == pytest.approx(300 + link_cycles)
        receiver = result.chip_trace(0)
        sender = result.chip_trace(1)
        # The receiver waits 300 cycles for the sender, then transfers.
        assert receiver.cycles[RuntimeCategory.IDLE] == pytest.approx(300.0)
        assert receiver.cycles[RuntimeCategory.CHIP_TO_CHIP] == pytest.approx(link_cycles)
        assert sender.cycles[RuntimeCategory.CHIP_TO_CHIP] == pytest.approx(link_cycles)
        # Payload bytes are counted once, on the sender.
        assert sender.c2c_bytes_sent == payload
        assert receiver.c2c_bytes_sent == 0
        assert result.total_c2c_bytes == payload

    def test_transfers_to_same_receiver_serialise(self):
        payload = 1000
        schedules = {
            0: ChipSchedule(
                chip_id=0,
                steps=(
                    RecvStep(name="r1", src=1, num_bytes=payload, tag="a"),
                    RecvStep(name="r2", src=2, num_bytes=payload, tag="b"),
                ),
            ),
            1: ChipSchedule(
                chip_id=1,
                steps=(SendStep(name="s", dst=0, num_bytes=payload, tag="a"),),
            ),
            2: ChipSchedule(
                chip_id=2,
                steps=(SendStep(name="s", dst=0, num_bytes=payload, tag="b"),),
            ),
        }
        result = simulate_block(make_program(schedules, num_chips=3))
        per_message = 1000 + payload
        assert result.total_cycles >= 2 * per_message

    def test_deadlock_detected(self):
        schedules = {
            0: ChipSchedule(
                chip_id=0,
                steps=(RecvStep(name="r", src=1, num_bytes=4, tag="never"),),
            ),
            1: ChipSchedule(
                chip_id=1,
                steps=(RecvStep(name="r", src=0, num_bytes=4, tag="never"),),
            ),
        }
        # Both chips wait to receive a message the other never sends.  The
        # schedule-level validation cannot catch it because the sends exist
        # nowhere, so the program validation fails first; bypass it by
        # constructing mutually-waiting receives with matching sends that
        # are ordered after the receives on both chips.
        schedules = {
            0: ChipSchedule(
                chip_id=0,
                steps=(
                    RecvStep(name="r", src=1, num_bytes=4, tag="x"),
                    SendStep(name="s", dst=1, num_bytes=4, tag="y"),
                ),
            ),
            1: ChipSchedule(
                chip_id=1,
                steps=(
                    RecvStep(name="r", src=0, num_bytes=4, tag="y"),
                    SendStep(name="s", dst=0, num_bytes=4, tag="x"),
                ),
            ),
        }
        with pytest.raises(SimulationError, match="deadlock"):
            simulate_block(make_program(schedules))

    def test_mismatched_payload_sizes_detected(self):
        schedules = {
            0: ChipSchedule(
                chip_id=0,
                steps=(RecvStep(name="r", src=1, num_bytes=8, tag="m"),),
            ),
            1: ChipSchedule(
                chip_id=1,
                steps=(SendStep(name="s", dst=0, num_bytes=4, tag="m"),),
            ),
        }
        # The program-level validation only matches counts, so the size
        # mismatch is caught by the simulator.
        with pytest.raises(SimulationError, match="size mismatch"):
            simulate_block(make_program(schedules))


class TestEndToEndDeterminism:
    def test_repeated_runs_are_identical(self, eight_chip_platform):
        workload = autoregressive(tinyllama_42m(), 128)
        program = BlockScheduler(platform=eight_chip_platform).build(workload)
        first = simulate_block(program)
        second = simulate_block(program)
        assert first.total_cycles == second.total_cycles
        for chip_id in program.chip_ids:
            assert (
                first.chip_trace(chip_id).cycles == second.chip_trace(chip_id).cycles
            )

    def test_record_events_produces_spans(self, single_chip_platform):
        workload = autoregressive(tinyllama_42m(), 128)
        program = BlockScheduler(platform=single_chip_platform).build(workload)
        result = simulate_block(program, record_events=True)
        events = result.chip_trace(0).events
        assert events
        assert all(event.duration >= 0 for event in events)
        assert all(event.end_cycle <= result.total_cycles for event in events)
