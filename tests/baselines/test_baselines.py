"""Unit tests for the Table I baseline partitioning approaches."""

from __future__ import annotations

import pytest

from repro.api import EvalResult, Session
from repro.baselines import (
    evaluate_pipeline_parallel,
    evaluate_weight_replicated,
    qualitative_table,
    render_comparison,
)
from repro.errors import AnalysisError
from repro.graph.workload import autoregressive, encoder, prompt
from repro.hw.presets import siracusa_platform
from repro.models import mobilebert, tinyllama_42m


@pytest.fixture(scope="module")
def platform():
    return siracusa_platform(8)


@pytest.fixture(scope="module")
def decode_workload():
    return autoregressive(tinyllama_42m(), 128)


@pytest.fixture(scope="module")
def session():
    return Session()


def analytical_result(**overrides) -> EvalResult:
    fields = dict(
        strategy="analytical", approach="analytical",
        workload=autoregressive(tinyllama_42m(), 128), num_chips=1,
        frequency_hz=500e6, block_cycles=1000, block_energy_joules=1e-3,
        l3_bytes_per_block=0, weight_bytes_per_chip=0,
        weights_replicated=False, synchronisations_per_block=0,
    )
    fields.update(overrides)
    return EvalResult(**fields)


class TestAnalyticalResult:
    def test_validation(self):
        with pytest.raises(AnalysisError):
            analytical_result(num_chips=0)

    def test_speedup_and_edp(self):
        slow = analytical_result(approach="slow")
        fast = analytical_result(
            approach="fast", num_chips=8, block_cycles=100,
            synchronisations_per_block=2,
        )
        assert fast.speedup_over(slow) == pytest.approx(10.0)
        assert fast.edp_joule_cycles == pytest.approx(0.1)


class TestSingleChip:
    def test_matches_one_chip_evaluation(self, session, decode_workload, platform):
        result = session.run(decode_workload, "single_chip", platform=platform)
        assert result.num_chips == 1
        assert not result.weights_replicated
        assert result.synchronisations_per_block == 0
        assert result.weight_bytes_per_chip == decode_workload.config.block_weight_bytes


class TestWeightReplicated:
    def test_autoregressive_mode_gets_no_parallelism(
        self, session, decode_workload, platform
    ):
        """With one query row, the sequence-parallel scheme cannot spread
        work, which is exactly why the paper rejects it for real-time
        decoding."""
        single = session.run(decode_workload, "single_chip", platform=platform)
        replicated = evaluate_weight_replicated(decode_workload, platform)
        assert replicated.weights_replicated
        assert replicated.weight_bytes_per_chip == single.weight_bytes_per_chip
        assert replicated.block_cycles >= 0.9 * single.block_cycles

    def test_prompt_mode_splits_rows_but_keeps_weights(self, session, platform):
        workload = prompt(tinyllama_42m(), 16)
        single = session.run(workload, "single_chip", platform=platform)
        replicated = evaluate_weight_replicated(workload, platform)
        # Some speedup from splitting the rows ...
        assert replicated.block_cycles < single.block_cycles
        # ... but the full weights (and their off-chip traffic) stay on
        # every chip, so the energy goes UP with the chip count.
        assert replicated.weight_bytes_per_chip == single.weight_bytes_per_chip
        assert replicated.l3_bytes_per_block > 4 * single.l3_bytes_per_block
        assert replicated.block_energy_joules > single.block_energy_joules

    def test_encoder_workload_reports_communication(self, platform):
        workload = encoder(mobilebert(), 268)
        result = evaluate_weight_replicated(workload, platform)
        assert result.synchronisations_per_block == 2
        assert result.l3_bytes_per_block > 0


class TestPipelineParallel:
    def test_single_request_latency_not_reduced_much(
        self, session, decode_workload, platform
    ):
        single = session.run(decode_workload, "single_chip", platform=platform)
        pipeline = evaluate_pipeline_parallel(decode_workload, platform)
        assert pipeline.uses_pipelining
        assert not pipeline.weights_replicated
        # For a single token the stages execute sequentially; the only gain
        # can come from better weight residency, so the latency stays within
        # a factor ~2 of the single chip rather than approaching 1/8.
        assert pipeline.block_cycles > single.block_cycles / 2

    def test_stage_weights_shrink_with_chip_count(self, decode_workload):
        two = evaluate_pipeline_parallel(decode_workload, siracusa_platform(2))
        eight = evaluate_pipeline_parallel(decode_workload, siracusa_platform(8))
        assert eight.weight_bytes_per_chip < two.weight_bytes_per_chip


class TestTensorParallel:
    def test_ours_wins_on_latency_without_replication(
        self, session, decode_workload, platform
    ):
        ours = session.run(decode_workload, "tensor_parallel", platform=platform)
        single = session.run(decode_workload, "single_chip", platform=platform)
        assert not ours.weights_replicated
        assert ours.synchronisations_per_block == 2
        assert ours.speedup_over(single) > 8
        assert ours.weight_bytes_per_chip * 8 == pytest.approx(
            single.weight_bytes_per_chip, rel=0.01
        )


class TestComparison:
    def test_compare_order_and_types(self, decode_workload, platform):
        results = Session(platform=platform).compare(decode_workload).results
        assert [r.approach for r in results][0] == "Single chip"
        assert "tensor parallel" in results[-1].approach.lower()
        assert len(results) == 4
        assert all(isinstance(r, EvalResult) for r in results)

    def test_render_comparison_contains_all_rows(self, decode_workload, platform):
        results = Session(platform=platform).compare(decode_workload).results
        text = render_comparison(results)
        assert "Single chip" in text
        assert "Pipeline parallel" in text
        assert "replicated" in text.lower()

    def test_qualitative_table_matches_paper(self):
        table = qualitative_table()
        assert table["Ours"]["Weight Duplication"] == "No"
        assert table["Ours"]["Pipelining"] == "No"
        assert table["When the Edge Meets Transformers [21]"]["Weight Duplication"] == "Yes"
        assert table["Hermes [22]"]["Pipelining"] == "Yes"
        assert len(table) == 6
