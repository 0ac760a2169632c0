"""End-to-end tests of ``Session.serve`` on the real block engine.

These cover the acceptance properties of the serving subsystem: the full
pipeline runs on the paper's platform, equal seeds give byte-identical
JSON, the registered policies produce distinct-but-sane orderings under
overload, and the phase-cost bridge stays consistent with the per-block
evaluations it memoises.
"""

from __future__ import annotations

import pytest

from repro.api import Session
from repro.errors import ConfigurationError
from repro.models import tinyllama_42m
from repro.serving import PoissonTrace, RequestCostModel

#: A load slightly past the 8-chip platform's capacity: the regime where
#: scheduling policies differ most (see the capacity study).
OVERLOAD = PoissonTrace(rate_rps=4.5, duration_s=60.0)

LIGHT = PoissonTrace(rate_rps=1.0, duration_s=30.0)


@pytest.fixture(scope="module")
def session():
    return Session()


@pytest.fixture(scope="module")
def overload_reports(session):
    config = tinyllama_42m()
    return {
        policy: session.serve(config, OVERLOAD, policy=policy, chips=8, seed=0)
        for policy in ("fifo", "shortest_prompt", "priority", "continuous")
    }


class TestServeEndToEnd:
    def test_report_carries_provenance_and_metrics(self, session):
        report = session.serve(
            tinyllama_42m(), LIGHT, policy="fifo", chips=8, seed=0
        )
        assert report.model == "tinyllama-42m"
        assert report.num_chips == 8
        assert report.strategy == "paper"
        assert report.policy == "fifo"
        assert report.metrics.requests == report.result.num_requests
        assert report.metrics.ttft.p50 > 0
        assert report.metrics.energy_per_request_joules > 0
        assert 0 < report.metrics.utilisation < 1

    def test_same_seed_is_byte_identical(self, session):
        config = tinyllama_42m()
        first = session.serve(config, LIGHT, policy="fifo", chips=8, seed=0)
        second = session.serve(config, LIGHT, policy="fifo", chips=8, seed=0)
        assert first.to_json() == second.to_json()

    def test_different_seeds_differ(self, session):
        config = tinyllama_42m()
        first = session.serve(config, LIGHT, policy="fifo", chips=8, seed=0)
        second = session.serve(config, LIGHT, policy="fifo", chips=8, seed=1)
        assert first.to_json() != second.to_json()

    def test_serving_reuses_the_sessions_block_cache(self, session):
        config = tinyllama_42m()
        session.serve(config, LIGHT, policy="fifo", chips=8, seed=0)
        misses_before = session.cache_info().misses
        session.serve(config, LIGHT, policy="continuous", chips=8, seed=3)
        # A second serve (any policy, any seed) hits the memoised block
        # evaluations; only previously unseen length buckets would miss.
        assert session.cache_info().misses <= misses_before + 2

    def test_overlong_requests_fail_fast_before_simulating(self, session):
        from repro.errors import AnalysisError
        from repro.serving import ReplayTrace, Request

        trace = ReplayTrace(
            (
                Request(request_id=0, arrival_s=0.0,
                        prompt_tokens=900, output_tokens=200),
            )
        )
        with pytest.raises(AnalysisError) as excinfo:
            session.serve(tinyllama_42m(), trace, chips=8, max_context=1024)
        assert "max_context" in str(excinfo.value)
        # The boundary case fits exactly: the deepest context is
        # prompt + output - 1 (the prefill emits the first token).
        fits = ReplayTrace(
            (
                Request(request_id=0, arrival_s=0.0,
                        prompt_tokens=900, output_tokens=125),
            )
        )
        report = session.serve(tinyllama_42m(), fits, chips=8, max_context=1024)
        assert report.metrics.requests == 1

    def test_empty_trace_is_reported_clearly(self, session):
        from repro.errors import AnalysisError

        # Legal but degenerate: the first arrival falls past the horizon.
        quiet = PoissonTrace(rate_rps=0.001, duration_s=0.001)
        with pytest.raises(AnalysisError) as excinfo:
            session.serve(tinyllama_42m(), quiet, chips=8, seed=0)
        assert "no requests" in str(excinfo.value)

    def test_more_chips_serve_faster(self, session):
        config = tinyllama_42m()
        single = session.serve(config, LIGHT, policy="fifo", chips=1, seed=0)
        distributed = session.serve(config, LIGHT, policy="fifo", chips=8, seed=0)
        assert distributed.metrics.ttft.p50 < single.metrics.ttft.p50
        assert distributed.metrics.utilisation < single.metrics.utilisation


class TestPolicyOrderings:
    def test_policies_produce_distinct_outcomes(self, overload_reports):
        ttft_tails = {
            policy: round(report.metrics.ttft.p95, 9)
            for policy, report in overload_reports.items()
        }
        # fifo and priority coincide on a priority-less trace by design;
        # the other policies must each produce a distinct tail.
        assert ttft_tails["fifo"] == ttft_tails["priority"]
        assert len({ttft_tails[p] for p in ("fifo", "shortest_prompt", "continuous")}) == 3

    def test_shortest_prompt_lowers_p95_ttft_under_overload(self, overload_reports):
        fifo = overload_reports["fifo"].metrics
        spf = overload_reports["shortest_prompt"].metrics
        assert spf.ttft.p95 < fifo.ttft.p95
        assert spf.ttft.p50 < fifo.ttft.p50

    def test_continuous_batching_flattens_ttft_but_stretches_decode(
        self, overload_reports
    ):
        fifo = overload_reports["fifo"].metrics
        continuous = overload_reports["continuous"].metrics
        assert continuous.ttft.p95 < fifo.ttft.p95
        # Token-sliced decode trades longer per-request decode spans.
        assert continuous.tpot.p50 > fifo.tpot.p50

    def test_all_policies_serve_the_same_work(self, overload_reports):
        requests = {r.metrics.requests for r in overload_reports.values()}
        tokens = {r.result.generated_tokens for r in overload_reports.values()}
        assert len(requests) == 1
        assert len(tokens) == 1

    def test_priority_policy_prefers_high_priority_under_overload(self, session):
        trace = PoissonTrace(
            rate_rps=4.5, duration_s=60.0, priority_levels=2
        )
        report = session.serve(
            tinyllama_42m(), trace, policy="priority", chips=8, seed=0
        )
        by_class = {0: [], 1: []}
        for record in report.result.records:
            by_class[record.request.priority].append(record.queue_wait_s)
        mean = lambda values: sum(values) / len(values)  # noqa: E731
        assert mean(by_class[1]) < mean(by_class[0])


class TestRequestCostModel:
    def test_costs_match_the_underlying_evaluations(self, session):
        from repro.graph.workload import autoregressive, prompt

        config = tinyllama_42m()
        costs = RequestCostModel(session, config, chips=8)
        bucket = costs.bucket(128)
        decode = costs.decode_cost(128)
        reference = session.run(
            autoregressive(config, bucket), "paper", chips=8
        )
        assert decode.seconds == pytest.approx(
            reference.inference_runtime_seconds
        )
        assert decode.energy_joules == pytest.approx(
            reference.inference_energy_joules
        )
        prefill = costs.prefill_cost(16)
        reference = session.run(
            prompt(config, costs.bucket(16)), "paper", chips=8
        )
        assert prefill.seconds == pytest.approx(
            reference.inference_runtime_seconds
        )

    def test_buckets_are_memoised_and_bounded(self, session):
        config = tinyllama_42m()
        costs = RequestCostModel(session, config, chips=8)
        for context in range(1, 200):
            costs.decode_cost(context)
        # ~2 grid points per octave: far fewer evaluations than lookups.
        assert costs.evaluations < 20
        for tokens in (1, 7, 64, 200):
            assert 1 <= costs.bucket(tokens) <= costs.max_context

    def test_prefill_costs_grow_with_prompt_length(self, session):
        config = tinyllama_42m()
        costs = RequestCostModel(session, config, chips=8)
        assert (
            costs.prefill_cost(256).seconds
            > costs.prefill_cost(16).seconds
            > costs.decode_cost(16).seconds
        )

    def test_rejects_contexts_beyond_the_serving_window(self, session):
        costs = RequestCostModel(
            session, tinyllama_42m(), chips=8, max_context=128
        )
        with pytest.raises(ConfigurationError):
            costs.bucket(129)

    def test_rejects_bad_grid(self, session):
        with pytest.raises(ConfigurationError):
            RequestCostModel(
                session, tinyllama_42m(), chips=8, grid_factor=1.0
            )
