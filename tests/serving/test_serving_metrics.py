"""Unit tests for the serving analytics (percentiles, SLOs, queue depth)."""

from __future__ import annotations

import json

import pytest

from repro.errors import AnalysisError
from repro.fleet.simulator import serve_source
from repro.serving import (
    LatencySummary,
    PoissonTrace,
    Request,
    ServingMetrics,
    ServingReport,
    ServingResult,
    attainment_curve,
    percentile,
    slo_attainment,
)
from repro.serving import PhaseCost
from repro.serving.request import RequestRecord


class StubCosts:
    """Linear phase costs (mirrors the simulator tests' stub)."""

    max_context = 1024

    def prefill_cost(self, prompt_tokens):
        seconds = prompt_tokens * 0.01
        return PhaseCost(seconds=seconds, energy_joules=seconds)

    def decode_cost(self, context_length):
        return PhaseCost(seconds=0.001, energy_joules=0.001)


def make_record(request_id, ttft_s, e2e_s, output_tokens=4, arrival_s=0.0):
    return RequestRecord(
        request=Request(
            request_id=request_id,
            arrival_s=arrival_s,
            prompt_tokens=8,
            output_tokens=output_tokens,
        ),
        first_scheduled_s=arrival_s,
        first_token_s=arrival_s + ttft_s,
        finish_s=arrival_s + e2e_s,
        energy_joules=0.5,
    )


def stub_result(policy="fifo", rate=20.0, duration=10.0, seed=0):
    trace = PoissonTrace(rate_rps=rate, duration_s=duration)
    return serve_source(StubCosts(), trace.build(seed), policy)


class TestPercentile:
    def test_matches_linear_interpolation(self):
        values = list(range(1, 101))  # 1..100
        assert percentile(values, 0) == 1
        assert percentile(values, 100) == 100
        assert percentile(values, 50) == pytest.approx(50.5)
        assert percentile(values, 95) == pytest.approx(95.05)

    def test_order_independent(self):
        assert percentile([3.0, 1.0, 2.0], 50) == 2.0

    def test_single_value(self):
        assert percentile([7.0], 99) == 7.0

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(AnalysisError):
            percentile([], 50)
        with pytest.raises(AnalysisError):
            percentile([1.0], 123)


class TestLatencySummary:
    def test_summary_fields(self):
        summary = LatencySummary.of([1.0, 2.0, 3.0, 4.0])
        assert summary.mean == pytest.approx(2.5)
        assert summary.p50 == pytest.approx(2.5)
        assert summary.max == 4.0

    def test_zero_summary(self):
        assert LatencySummary.zero().p99 == 0.0


class TestSLO:
    def test_attainment_counts_requests_meeting_targets(self):
        records = [
            make_record(0, ttft_s=0.1, e2e_s=0.5),
            make_record(1, ttft_s=0.3, e2e_s=0.6),
            make_record(2, ttft_s=0.9, e2e_s=2.0),
        ]
        assert slo_attainment(records, ttft_s=0.5) == pytest.approx(2 / 3)
        assert slo_attainment(records, ttft_s=1.0, e2e_s=1.0) == pytest.approx(2 / 3)
        assert slo_attainment(records) == 1.0

    def test_curve_is_monotone_non_decreasing(self):
        curve = attainment_curve(stub_result(rate=50.0).records)
        fractions = [fraction for _, fraction in curve]
        assert fractions == sorted(fractions)
        # Under capacity, every request meets the loosest target.
        relaxed = attainment_curve(stub_result(rate=1.0).records)
        assert relaxed[-1][1] == 1.0

    def test_attainment_rejects_empty(self):
        with pytest.raises(AnalysisError):
            slo_attainment([], ttft_s=1.0)


class TestQueueDepth:
    def depth(self, *spans):
        records = tuple(
            make_record(rid, ttft_s=0.0, e2e_s=end - start, arrival_s=start)
            for rid, (start, end) in enumerate(spans)
        )
        result = ServingResult(
            policy="fifo",
            records=records,
            makespan_s=max(end for _, end in spans),
            busy_s=0.0,
        )
        metrics = ServingMetrics.from_result(result)
        return metrics.mean_queue_depth, metrics.peak_queue_depth

    def test_depth_is_time_weighted_over_the_makespan(self):
        # One request in the system over [0, 0.5) and [1, 2), two over
        # [0.5, 1).
        mean, peak = self.depth((0.0, 1.0), (0.5, 2.0))
        assert mean == pytest.approx((0.5 + 2 * 0.5 + 1.0) / 2.0)
        assert peak == 2

    def test_an_arrival_counts_before_a_completion_at_the_same_instant(self):
        mean, peak = self.depth((0.0, 1.0), (1.0, 2.0))
        assert mean == pytest.approx(1.0)
        assert peak == 2


class TestServingMetrics:
    def test_aggregates_are_consistent_with_records(self):
        result = stub_result(rate=25.0)
        metrics = ServingMetrics.from_result(result)
        assert metrics.requests == result.num_requests
        assert metrics.throughput_rps == pytest.approx(
            result.num_requests / result.makespan_s
        )
        assert metrics.throughput_tps == pytest.approx(
            result.generated_tokens / result.makespan_s
        )
        assert metrics.ttft.p50 <= metrics.ttft.p95 <= metrics.ttft.p99
        assert metrics.peak_queue_depth >= 1
        assert metrics.mean_queue_depth > 0
        total = sum(record.energy_joules for record in result.records)
        assert metrics.total_energy_joules == pytest.approx(total)

    def test_rejects_empty_results(self):
        empty = stub_result()
        empty = type(empty)(
            policy=empty.policy,
            records=(),
            makespan_s=0.0,
            busy_s=0.0,
        )
        with pytest.raises(AnalysisError):
            ServingMetrics.from_result(empty)


class TestServingReport:
    def report(self):
        result = stub_result()
        return ServingReport(
            model="stub-model",
            num_chips=8,
            strategy="paper",
            policy=result.policy,
            seed=0,
            result=result,
            metrics=ServingMetrics.from_result(result),
        )

    def test_json_is_deterministic_and_parses(self):
        report = self.report()
        document = report.to_json()
        assert document == self.report().to_json()
        parsed = json.loads(document)
        assert parsed["model"] == "stub-model"
        assert parsed["metrics"]["requests"] == report.metrics.requests
        assert len(parsed["records"]) == report.metrics.requests

    def test_render_mentions_the_headline_numbers(self):
        text = self.report().render()
        for token in ("TTFT", "TPOT", "e2e", "SLO", "throughput", "energy"):
            assert token in text
