"""``serve`` as a one-replica fleet against the engine it replaced.

:func:`~repro.fleet.simulator.serve_source` runs a single-platform serve
on :class:`~repro.fleet.FleetSimulator`.  The single-platform loop it
replaced lives on in ``tests/serving_oracle.py``; on stub costs, every
replay and closed loop must give ``==`` records, makespan, busy time and
mean and peak queue depth under all four shipped policies.  The replays
draw arrivals from a handful of instants, so most runs have requests
arriving together and grants ending as others arrive.  The fleet's
timeline ticks (every 60 s) sort ahead of arrivals due at the same
instant, so further replays put grant ends and arrivals on those ticks.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import serving_oracle
from repro.fleet.simulator import serve_source
from repro.serving import (
    ClosedLoopTrace,
    LengthModel,
    PhaseCost,
    ReplayTrace,
    Request,
    ServingMetrics,
)

SHIPPED = ("fifo", "shortest_prompt", "priority", "continuous")


class StubCosts:
    """Linear phase costs (prefill: 10 ms/token, decode: 1 ms + 10 us/token)."""

    max_context = 1024

    def prefill_cost(self, prompt_tokens):
        seconds = 0.01 * prompt_tokens
        return PhaseCost(seconds=seconds, energy_joules=2.0 * seconds)

    def decode_cost(self, context_length):
        seconds = 0.001 + 1e-5 * context_length
        return PhaseCost(seconds=seconds, energy_joules=3.0 * seconds)


def assert_matches_oracle(trace, policy, seed=0, costs=StubCosts):
    # Each build is a fresh request source drawing the same seeded stream.
    result = serve_source(costs(), trace.build(seed), policy)
    oracle = serving_oracle.ServingSimulator(costs(), policy).run(trace.build(seed))
    assert result.policy == oracle.policy
    assert result.records == oracle.records
    assert result.makespan_s == oracle.makespan_s
    assert result.busy_s == oracle.busy_s
    metrics = ServingMetrics.from_result(result)
    depth = (metrics.mean_queue_depth, metrics.peak_queue_depth)
    assert depth == serving_oracle._time_weighted_depth(oracle)


def replays(arrivals):
    """Lists of 1-14 ``(arrival_s, prompt, output, priority)`` entries."""
    return st.lists(
        st.tuples(
            st.sampled_from(arrivals),
            st.integers(1, 40),
            st.integers(1, 6),
            st.integers(0, 2),
        ),
        min_size=1,
        max_size=14,
    )


def replay(entries):
    return ReplayTrace(
        tuple(
            Request(
                request_id=rid,
                arrival_s=arrival_s,
                prompt_tokens=prompt,
                output_tokens=output,
                priority=priority,
            )
            for rid, (arrival_s, prompt, output, priority) in enumerate(entries)
        )
    )


@settings(max_examples=150, deadline=None)
@given(entries=replays((0.0, 0.25, 1.0, 2.0, 5.0, 60.0)), policy=st.sampled_from(SHIPPED))
def test_replays_match_the_oracle(entries, policy):
    assert_matches_oracle(replay(entries), policy)


class TickCosts(StubCosts):
    """20 s per prefill and 10 s per decode step: with arrivals on a 10 s
    grid, grants keep ending on the fleet's 60 s timeline ticks."""

    def prefill_cost(self, prompt_tokens):
        return PhaseCost(seconds=20.0, energy_joules=float(prompt_tokens))

    def decode_cost(self, context_length):
        return PhaseCost(seconds=10.0, energy_joules=1.0)


@settings(max_examples=150, deadline=None)
@given(entries=replays((0.0, 10.0, 30.0, 60.0, 120.0)), policy=st.sampled_from(SHIPPED))
def test_replays_across_timeline_ticks_match_the_oracle(entries, policy):
    assert_matches_oracle(replay(entries), policy, costs=TickCosts)


@pytest.mark.parametrize("policy", SHIPPED)
def test_an_arrival_on_the_timeline_tick_joins_the_pick(policy):
    # Request 0 finishes at exactly 60 s (prefill 240 x 0.25 s), when the
    # fleet's window tick and request 2's arrival are due together; the
    # pick at 60 s must see request 2 queued beside request 1.
    class QuarterSecondPrefill(StubCosts):
        def prefill_cost(self, prompt_tokens):
            seconds = 0.25 * prompt_tokens
            return PhaseCost(seconds=seconds, energy_joules=seconds)

    trace = replay([(0.0, 240, 1, 0), (30.0, 100, 1, 0), (60.0, 1, 1, 0)])
    assert_matches_oracle(trace, policy, costs=QuarterSecondPrefill)
    if policy == "shortest_prompt":
        result = serve_source(QuarterSecondPrefill(), trace.build(0), policy)
        order = [record.request.request_id for record in result.records]
        assert order == [0, 2, 1]


@pytest.mark.parametrize("priority", [10**12, 2**62])
def test_far_apart_priorities_are_kept_without_a_class_per_level(priority):
    # Serve admits with the trace's own priorities (no per-level classes),
    # so a huge priority costs nothing and still wins under ``priority``.
    trace = replay([(0.0, 30, 2, 0), (0.0, 10, 2, 0), (0.0, 20, 2, priority)])
    assert_matches_oracle(trace, "priority")
    result = serve_source(StubCosts(), trace.build(0), "priority")
    assert [record.request.priority for record in result.records] == [
        priority,
        0,
        0,
    ]


@settings(max_examples=40, deadline=None)
@given(
    clients=st.integers(1, 4),
    per_client=st.integers(1, 4),
    think_s=st.sampled_from((0.01, 0.2, 2.0)),
    levels=st.integers(1, 3),
    seed=st.integers(0, 1000),
    policy=st.sampled_from(SHIPPED),
)
def test_closed_loops_match_the_oracle(clients, per_client, think_s, levels, seed, policy):
    trace = ClosedLoopTrace(
        clients=clients,
        requests_per_client=per_client,
        mean_think_s=think_s,
        lengths=LengthModel(prompt_mean=16.0, output_mean=4.0, prompt_max=64, output_max=16),
        priority_levels=levels,
    )
    assert_matches_oracle(trace, policy, seed)
