"""End-to-end integration tests across the whole pipeline.

These tests exercise the full chain — model config, partitioner, footprint,
placement, scheduler, block simulator, energy model, analysis — and
check cross-module consistency (the kind of bug unit tests cannot see).
"""

from __future__ import annotations

import pytest

from repro import (
    PrefetchAccounting,
    autoregressive,
    encoder,
    evaluate_block,
    mobilebert,
    prompt,
    siracusa_platform,
    tinyllama_42m,
)
from repro.core.collectives import estimate_plan_cycles, hierarchical_all_reduce
from repro.core.schedule import RuntimeCategory, SendStep
from repro.core.scheduler import BlockScheduler
from repro.kernels.library import KernelLibrary
from repro.sim import simulate_block


class TestTrafficConsistency:
    @pytest.mark.parametrize("num_chips", [1, 2, 4, 8])
    def test_l3_traffic_equals_plan_times_passes(self, num_chips):
        """Simulated off-chip traffic matches what the schedules request."""
        workload = autoregressive(tinyllama_42m(), 128)
        report = evaluate_block(workload, siracusa_platform(num_chips))
        expected = 0.0
        for chip_id, schedule in report.program.schedules.items():
            for step in schedule.steps:
                if hasattr(step, "channel") and getattr(step.channel, "value", "") == "l3_l2":
                    expected += step.num_bytes
                if type(step).__name__ == "PrefetchStep":
                    expected += step.num_bytes
        assert report.total_l3_bytes == pytest.approx(expected)

    @pytest.mark.parametrize("num_chips", [2, 4, 8])
    def test_c2c_traffic_matches_schedule(self, num_chips):
        workload = prompt(tinyllama_42m(), 16)
        report = evaluate_block(workload, siracusa_platform(num_chips))
        scheduled = sum(
            step.num_bytes
            for schedule in report.program.schedules.values()
            for step in schedule.steps
            if isinstance(step, SendStep)
        )
        assert report.total_c2c_bytes == pytest.approx(scheduled)
        # Two all-reduces plus two broadcasts of the S x E partial output.
        payload = 16 * 512
        assert scheduled == 4 * (num_chips - 1) * payload

    def test_single_chip_kernel_costs_account_for_runtime(self):
        """For one chip the simulated runtime equals the sum of its parts
        (no communication, no idling)."""
        workload = encoder(mobilebert(), 268)
        platform = siracusa_platform(1)
        program = BlockScheduler(platform=platform).build(workload)
        result = simulate_block(program)
        trace = result.chip_trace(0)
        assert trace.cycles[RuntimeCategory.IDLE] == 0
        assert trace.cycles[RuntimeCategory.CHIP_TO_CHIP] == 0
        assert sum(trace.cycles.values()) == pytest.approx(result.total_cycles)


class TestCommunicationCosts:
    def test_sync_cost_close_to_analytical_estimate(self):
        """The simulated communication time per synchronisation matches the
        analytical plan estimate within the slack created by compute
        imbalance (root does a little more work)."""
        workload = autoregressive(tinyllama_42m(), 128)
        platform = siracusa_platform(8)
        report = evaluate_block(workload, platform)
        payload = 1 * 512
        reduce_cycles = estimate_plan_cycles(
            hierarchical_all_reduce(platform, payload), platform
        )
        trace = report.simulation.chip_trace(platform.root_chip_id)
        # The root participates in every reduce transfer, so its C2C time is
        # at least the two reduce phases and at most the full sync cost of
        # reduce plus broadcast for both block stages.
        assert trace.cycles[RuntimeCategory.CHIP_TO_CHIP] >= 2 * reduce_cycles * 0.9
        assert trace.cycles[RuntimeCategory.CHIP_TO_CHIP] <= 6 * reduce_cycles


class TestPrefetchPolicies:
    def test_policies_ordered_and_traffic_invariant(self):
        workload = autoregressive(tinyllama_42m(), 128)
        platform = siracusa_platform(8)
        results = {
            policy: evaluate_block(workload, platform, prefetch_accounting=policy)
            for policy in PrefetchAccounting
        }
        assert (
            results[PrefetchAccounting.HIDDEN].block_cycles
            < results[PrefetchAccounting.OVERLAP].block_cycles
            <= results[PrefetchAccounting.BLOCKING].block_cycles
        )
        traffic = {r.total_l3_bytes for r in results.values()}
        assert len(traffic) == 1


class TestCustomKernelLibrary:
    def test_slower_kernels_increase_runtime_and_compute_energy(self):
        from repro.kernels.matmul import MatmulEfficiencyModel

        workload = prompt(tinyllama_42m(), 16)
        platform = siracusa_platform(8)
        default = evaluate_block(workload, platform)
        slow_library = KernelLibrary(
            cluster=platform.chip.cluster,
            matmul_model=MatmulEfficiencyModel(gemm_peak_efficiency=0.2),
        )
        slow = evaluate_block(workload, platform, kernel_library=slow_library)
        assert slow.block_cycles > default.block_cycles
        assert slow.energy.total.compute > default.energy.total.compute


class TestFullInferenceEstimates:
    def test_inference_scales_with_layer_count(self):
        tinyllama_workload = autoregressive(tinyllama_42m(), 128)
        report = evaluate_block(tinyllama_workload, siracusa_platform(8))
        assert report.inference_cycles == pytest.approx(8 * report.block_cycles)

        bert_report = evaluate_block(encoder(mobilebert(), 268), siracusa_platform(4))
        assert bert_report.inference_cycles == pytest.approx(
            24 * bert_report.block_cycles
        )

    def test_headline_latency_scale(self):
        """The 8-chip block latency is in the sub-millisecond range the
        paper reports (0.54 ms)."""
        report = evaluate_block(autoregressive(tinyllama_42m(), 128), siracusa_platform(8))
        assert 0.1e-3 < report.block_runtime_seconds < 1.0e-3
