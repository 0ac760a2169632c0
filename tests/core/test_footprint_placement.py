"""Unit tests for the memory footprint and weight-placement logic.

These tests encode the crossover points that drive the paper's story:
which chip counts fit a TinyLlama or MobileBERT block on-chip, when
double-buffering becomes possible, and when the whole model becomes
resident (the scalability study).
"""

from __future__ import annotations

import pytest

from repro.core.footprint import activation_footprint, chip_footprint
from repro.core.partition import partition_block
from repro.core.placement import WeightResidency, plan_memory
from repro.graph.workload import autoregressive, encoder, prompt
from repro.hw.presets import siracusa_chip
from repro.models import mobilebert, tinyllama_42m, tinyllama_scaled
from repro.units import mib


def residency_for(config, workload, num_chips, chip_model=None):
    """Helper: the weight residency of chip 0 for a given chip count."""
    chip_model = chip_model or siracusa_chip()
    partition = partition_block(config, num_chips)
    footprint = chip_footprint(config, workload, partition.chips[0])
    return plan_memory(chip_model, footprint)


class TestFootprint:
    def test_block_and_model_weight_bytes(self, autoregressive_workload):
        config = autoregressive_workload.config
        partition = partition_block(config, 8)
        footprint = chip_footprint(config, autoregressive_workload, partition.chips[0])
        assert footprint.block_weight_bytes == config.block_weight_bytes // 8
        assert footprint.model_weight_bytes == footprint.block_weight_bytes * 8

    def test_kv_cache_counted_only_when_used(self):
        config = tinyllama_42m()
        partition = partition_block(config, 8)
        decode = chip_footprint(config, autoregressive(config, 128), partition.chips[0])
        assert decode.kv_cache_bytes > 0

        bert = mobilebert()
        bert_partition = partition_block(bert, 4)
        enc = chip_footprint(bert, encoder(bert, 268), bert_partition.chips[0])
        assert enc.kv_cache_bytes == 0

    def test_activation_peak_uses_larger_stage(self, encoder_workload):
        config = encoder_workload.config
        partition = partition_block(config, 4)
        acts = activation_footprint(config, encoder_workload, partition.chips[0])
        assert acts.peak_bytes >= acts.attention_working_bytes
        assert acts.peak_bytes >= acts.ffn_working_bytes
        assert acts.attention_working_bytes > acts.ffn_working_bytes

    def test_required_bytes_modes(self, autoregressive_workload):
        config = autoregressive_workload.config
        partition = partition_block(config, 8)
        footprint = chip_footprint(config, autoregressive_workload, partition.chips[0])
        single = footprint.required_bytes(weight_copies=1)
        double = footprint.required_bytes(weight_copies=2)
        whole = footprint.required_bytes(whole_model=True)
        assert double - single == footprint.block_weight_bytes
        assert whole > double


class TestTinyLlamaResidency:
    """The residency regimes behind Fig. 4(a): streamed at 1-2 chips,
    on-chip (but not double-buffered) at 4, double-buffered at 8."""

    @pytest.mark.parametrize("num_chips,expected", [
        (1, WeightResidency.STREAMED),
        (2, WeightResidency.STREAMED),
        (4, WeightResidency.SINGLE_BUFFERED),
        (8, WeightResidency.DOUBLE_BUFFERED),
    ])
    def test_autoregressive_crossovers(self, num_chips, expected):
        config = tinyllama_42m()
        workload = autoregressive(config, 128)
        assert residency_for(config, workload, num_chips).residency is expected

    def test_prompt_mode_eight_chips_double_buffered(self):
        config = tinyllama_42m()
        assert (
            residency_for(config, prompt(config, 16), 8).residency
            is WeightResidency.DOUBLE_BUFFERED
        )


class TestScaledModelResidency:
    """The scalability-study regimes (Sec. V-C): double-buffered at 8-16
    chips, everything resident at 32-64 chips."""

    @pytest.mark.parametrize("num_chips,expected", [
        (8, WeightResidency.DOUBLE_BUFFERED),
        (16, WeightResidency.DOUBLE_BUFFERED),
        (32, WeightResidency.ALL_RESIDENT),
        (64, WeightResidency.ALL_RESIDENT),
    ])
    def test_autoregressive_crossovers(self, num_chips, expected):
        config = tinyllama_scaled()
        workload = autoregressive(config, 128)
        assert residency_for(config, workload, num_chips).residency is expected

    def test_all_resident_has_no_l3_traffic(self):
        config = tinyllama_scaled()
        plan = residency_for(config, autoregressive(config, 128), 64)
        assert plan.l3_weight_bytes_per_block == 0


class TestMobileBertResidency:
    """Fig. 4(c): the MobileBERT block becomes on-chip resident at 4 chips."""

    @pytest.mark.parametrize("num_chips,expected", [
        (1, WeightResidency.STREAMED),
        (2, WeightResidency.STREAMED),
        (4, WeightResidency.DOUBLE_BUFFERED),
    ])
    def test_crossovers(self, num_chips, expected):
        config = mobilebert()
        workload = encoder(config, 268)
        assert residency_for(config, workload, num_chips).residency is expected


class TestMemoryPlan:
    def test_larger_l2_enables_residency(self):
        config = tinyllama_42m()
        workload = autoregressive(config, 128)
        generous_chip = siracusa_chip()
        from dataclasses import replace

        generous_memory = replace(
            generous_chip.memory,
            l2=replace(generous_chip.memory.l2, size_bytes=mib(64)),
        )
        generous_chip = replace(generous_chip, memory=generous_memory)
        plan = residency_for(config, workload, 1, chip_model=generous_chip)
        assert plan.residency is WeightResidency.ALL_RESIDENT

    def test_utilisation_below_one_for_on_chip_plans(self):
        config = tinyllama_42m()
        plan = residency_for(config, autoregressive(config, 128), 8)
        assert 0 < plan.utilisation <= 1.0

    def test_streamed_plan_reports_block_traffic(self):
        config = tinyllama_42m()
        plan = residency_for(config, autoregressive(config, 128), 1)
        assert plan.l3_weight_bytes_per_block == config.block_weight_bytes
