"""Unit tests for single-platform serving (stubbed phase costs).

A linear stub cost model (prefill: 0.01 s/prompt token, decode: 1 ms/step)
makes every timeline exactly computable by hand, so these tests pin the
event-loop semantics — admission, grants, preemption points, closed-loop
follow-ups — of :func:`~repro.fleet.simulator.serve_source`, the
one-replica fleet behind ``Session.serve``, independently of the real
block engine.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.fleet.simulator import serve_source
from repro.serving import (
    ClosedLoopTrace,
    PhaseCost,
    PoissonTrace,
    ReplayTrace,
    Request,
    RequestSource,
)


class StubCosts:
    """Linear phase costs: exact arithmetic for hand-checked timelines."""

    max_context = 1024

    def __init__(self, prefill_per_token=0.01, decode_step=0.001):
        self.prefill_per_token = prefill_per_token
        self.decode_step = decode_step

    def prefill_cost(self, prompt_tokens):
        seconds = prompt_tokens * self.prefill_per_token
        return PhaseCost(seconds=seconds, energy_joules=seconds)

    def decode_cost(self, context_length):
        return PhaseCost(seconds=self.decode_step, energy_joules=self.decode_step)


def two_request_trace():
    """A long request at t=0 and a short one arriving mid-prefill."""
    return ReplayTrace(
        (
            Request(request_id=0, arrival_s=0.0, prompt_tokens=100, output_tokens=3),
            Request(request_id=1, arrival_s=0.5, prompt_tokens=10, output_tokens=2),
        )
    )


def run(policy, trace, **stub_kwargs):
    result = serve_source(StubCosts(**stub_kwargs), trace.build(0), policy)
    return {record.request.request_id: record for record in result.records}, result


class TestExactTimelines:
    def test_fifo_runs_to_completion_in_arrival_order(self):
        records, result = run("fifo", two_request_trace())
        # A: prefill [0, 1.0], decode 2 x 1ms -> finish 1.002.
        assert records[0].ttft_s == pytest.approx(1.0)
        assert records[0].finish_s == pytest.approx(1.002)
        # B waits for A: prefill [1.002, 1.102], 1 decode -> 1.103.
        assert records[1].queue_wait_s == pytest.approx(0.502)
        assert records[1].ttft_s == pytest.approx(0.602)
        assert records[1].finish_s == pytest.approx(1.103)
        assert result.makespan_s == pytest.approx(1.103)
        assert result.busy_s == pytest.approx(1.103)
        assert result.utilisation == pytest.approx(1.0)

    def test_shortest_prompt_lets_the_short_request_jump_in(self):
        records, _ = run("shortest_prompt", two_request_trace())
        # At t=1.0 (A's prefill done) B's shorter prompt wins the engine.
        assert records[1].ttft_s == pytest.approx(0.6)
        assert records[1].finish_s == pytest.approx(1.101)
        # A's decode is deferred behind B's whole service.
        assert records[0].ttft_s == pytest.approx(1.0)
        assert records[0].finish_s == pytest.approx(1.103)

    def test_continuous_interleaves_decode_token_by_token(self):
        records, _ = run("continuous", two_request_trace())
        # B's prefill is inserted right after A's (prefill-first)...
        assert records[1].ttft_s == pytest.approx(0.6)
        # ...then decode alternates: A@1.101, B@1.102 (done), A@1.103 (done).
        assert records[1].finish_s == pytest.approx(1.102)
        assert records[0].finish_s == pytest.approx(1.103)

    def test_tpot_is_decode_span_per_token(self):
        records, _ = run("fifo", two_request_trace())
        assert records[0].tpot_s == pytest.approx(0.001)
        assert records[1].tpot_s == pytest.approx(0.001)

    def test_energy_charges_served_phases(self):
        records, _ = run("fifo", two_request_trace())
        assert records[0].energy_joules == pytest.approx(1.0 + 2 * 0.001)
        assert records[1].energy_joules == pytest.approx(0.1 + 0.001)


class TestConservation:
    def test_every_request_is_drained_exactly_once(self):
        trace = PoissonTrace(rate_rps=20.0, duration_s=10.0)
        submitted = trace.build(0).initial
        for policy in ("fifo", "shortest_prompt", "priority", "continuous"):
            _, result = run(policy, trace)
            assert result.num_requests == len(submitted)
            served_ids = sorted(r.request.request_id for r in result.records)
            assert served_ids == sorted(r.request_id for r in submitted)

    def test_policies_change_ordering_not_work(self):
        trace = PoissonTrace(rate_rps=20.0, duration_s=10.0)
        outcomes = {
            policy: run(policy, trace)[1]
            for policy in ("fifo", "shortest_prompt", "continuous")
        }
        tokens = {r.generated_tokens for r in outcomes.values()}
        busy = {round(r.busy_s, 9) for r in outcomes.values()}
        assert len(tokens) == 1
        assert len(busy) == 1

    def test_idle_system_jumps_between_sparse_arrivals(self):
        trace = ReplayTrace(
            (
                Request(request_id=0, arrival_s=0.0, prompt_tokens=10, output_tokens=1),
                Request(request_id=1, arrival_s=100.0, prompt_tokens=10, output_tokens=1),
            )
        )
        _, result = run("fifo", trace)
        assert result.makespan_s == pytest.approx(100.1)
        assert result.busy_s == pytest.approx(0.2)
        assert result.utilisation < 0.01

    def test_timelines_are_causal(self):
        trace = PoissonTrace(rate_rps=30.0, duration_s=5.0)
        for policy in ("fifo", "shortest_prompt", "priority", "continuous"):
            _, result = run(policy, trace)
            for record in result.records:
                assert record.queue_wait_s >= 0
                assert record.ttft_s >= record.queue_wait_s
                assert record.e2e_s >= record.ttft_s


class TestClosedLoop:
    def test_closed_loop_drains_every_client_quota(self):
        trace = ClosedLoopTrace(
            clients=3, requests_per_client=4, mean_think_s=0.2
        )
        _, result = run("fifo", trace)
        assert result.num_requests == 12
        per_client = {}
        for record in result.records:
            client = record.request.client_id
            per_client[client] = per_client.get(client, 0) + 1
        assert per_client == {0: 4, 1: 4, 2: 4}

    def test_closed_loop_arrivals_react_to_completions(self):
        trace = ClosedLoopTrace(
            clients=1, requests_per_client=3, mean_think_s=0.1
        )
        _, result = run("fifo", trace)
        ordered = sorted(result.records, key=lambda r: r.request.arrival_s)
        for earlier, later in zip(ordered, ordered[1:]):
            assert later.request.arrival_s > earlier.finish_s

    def follow_up_source(self, delay_s, prompt_tokens=10):
        """One request, then one follow-up ``delay_s`` after its reply."""

        def follow_up(record):
            if record.request.request_id > 0:
                return None
            return Request(
                request_id=1,
                arrival_s=max(0.0, record.finish_s + delay_s),
                prompt_tokens=prompt_tokens,
                output_tokens=2,
            )

        first = Request(request_id=0, arrival_s=0.0, prompt_tokens=10, output_tokens=2)
        return RequestSource([first], follow_up)

    def test_a_follow_up_arrives_after_its_reply(self):
        result = serve_source(StubCosts(), self.follow_up_source(0.5), "fifo")
        first, second = result.records
        # The first reply ends at 0.101; its follow-up arrives 0.5 s later.
        assert second.request.arrival_s == pytest.approx(0.601)
        assert second.first_scheduled_s == second.request.arrival_s
        assert result.makespan_s == pytest.approx(0.702)
        assert result.busy_s == pytest.approx(0.202)

    def test_a_follow_up_before_its_reply_is_an_error(self):
        with pytest.raises(SimulationError, match="before the reply"):
            serve_source(StubCosts(), self.follow_up_source(-0.05), "fifo")

    def test_a_follow_up_beyond_the_serving_window_is_rejected_on_arrival(self):
        source = self.follow_up_source(0.5, prompt_tokens=2000)
        with pytest.raises(ConfigurationError, match="request 1 needs a context"):
            serve_source(StubCosts(), source, "fifo")
