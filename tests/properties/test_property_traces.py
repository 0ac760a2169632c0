"""Every traffic generator draws what the ``random.Random`` methods drew.

The generators of :mod:`repro.serving.traces` write CPython's sampling
formulas out in their loops; ``tests/trace_oracle.py`` keeps the
method-call versions.  Over random seeds and parameters — amplitude 0
and 1, phases, overlapping spikes, ``sigma`` 0, tight length bounds,
several priority levels, closed-loop completions in random order — each
generator must yield requests ``==`` to the oracle's.  A change to the
written-out formulas (or an interpreter that changes its own) fails here.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

import trace_oracle
from repro.serving import (
    BurstyTrace,
    ClosedLoopTrace,
    DiurnalTrace,
    LengthModel,
    PoissonTrace,
)
from repro.serving.request import RequestRecord

SEEDS = st.integers(min_value=0, max_value=2**32)
LEVELS = st.integers(min_value=1, max_value=4)


def finite(low, high):
    return st.floats(min_value=low, max_value=high, allow_nan=False, allow_infinity=False)


@st.composite
def length_models(draw):
    sides = []
    for _ in range(2):
        low = draw(st.integers(min_value=1, max_value=20))
        high = draw(st.integers(min_value=low, max_value=low + 60))
        mean = draw(finite(low, high))
        sides.append((mean, low, high))
    (prompt_mean, prompt_min, prompt_max), (output_mean, output_min, output_max) = sides
    return LengthModel(
        prompt_mean=prompt_mean,
        output_mean=output_mean,
        sigma=draw(st.one_of(st.just(0.0), finite(0.01, 2.5))),
        prompt_min=prompt_min,
        prompt_max=prompt_max,
        output_min=output_min,
        output_max=output_max,
    )


@st.composite
def diurnal_traces(draw):
    spikes = draw(
        st.lists(
            st.tuples(finite(0.0, 60.0), finite(0.1, 40.0), finite(0.1, 5.0)),
            max_size=4,
        )
    )
    return DiurnalTrace(
        rate_rps=draw(finite(0.1, 8.0)),
        duration_s=draw(finite(0.5, 80.0)),
        amplitude=draw(st.one_of(st.sampled_from((0.0, 1.0)), finite(0.0, 1.0))),
        period_s=draw(finite(0.5, 100.0)),
        phase_s=draw(finite(-50.0, 50.0)),
        spikes=tuple(spikes),
        lengths=draw(length_models()),
        priority_levels=draw(LEVELS),
    )


@st.composite
def open_loop_traces(draw):
    kind = draw(st.sampled_from(("poisson", "bursty", "diurnal")))
    if kind == "diurnal":
        return draw(diurnal_traces())
    lengths, levels = draw(length_models()), draw(LEVELS)
    if kind == "poisson":
        return PoissonTrace(
            rate_rps=draw(finite(0.1, 10.0)),
            duration_s=draw(finite(0.5, 60.0)),
            lengths=lengths,
            priority_levels=levels,
        )
    base = draw(finite(0.1, 5.0))
    return BurstyTrace(
        base_rate_rps=base,
        burst_rate_rps=draw(finite(base, base * 6.0)),
        duration_s=draw(finite(0.5, 60.0)),
        mean_base_s=draw(finite(0.1, 20.0)),
        mean_burst_s=draw(finite(0.1, 10.0)),
        lengths=lengths,
        priority_levels=levels,
    )


class TestTraceOracle:
    @settings(max_examples=150, deadline=None)
    @given(trace=open_loop_traces(), seed=SEEDS)
    def test_open_loop_builds_equal_the_oracle(self, trace, seed):
        assert trace.build(seed).initial == trace_oracle.build(trace, seed).initial

    @settings(max_examples=100, deadline=None)
    @given(trace=diurnal_traces(), seed=SEEDS)
    def test_diurnal_stream_equals_the_oracle(self, trace, seed):
        assert list(trace.stream(seed)) == list(trace_oracle.diurnal_stream(trace, seed))

    @settings(max_examples=60, deadline=None)
    @given(lengths=length_models(), seed=SEEDS, sides=st.lists(st.booleans(), max_size=40))
    def test_length_draws_equal_the_oracle(self, lengths, seed, sides):
        # Interleaved prompt and reply draws from one generator.
        ours, theirs = random.Random(seed), random.Random(seed)
        for prompt in sides:
            if prompt:
                assert lengths.sample_prompt(ours) == trace_oracle.sample_prompt(lengths, theirs)
            else:
                assert lengths.sample_output(ours) == trace_oracle.sample_output(lengths, theirs)
        assert ours.getstate() == theirs.getstate()

    @settings(max_examples=80, deadline=None)
    @given(
        clients=st.integers(min_value=1, max_value=5),
        per_client=st.integers(min_value=1, max_value=6),
        think_s=finite(0.05, 5.0),
        lengths=length_models(),
        levels=LEVELS,
        seed=SEEDS,
        data=st.data(),
    )
    def test_closed_loop_follow_ups_equal_the_oracle(
        self, clients, per_client, think_s, lengths, levels, seed, data
    ):
        trace = ClosedLoopTrace(
            clients=clients,
            requests_per_client=per_client,
            mean_think_s=think_s,
            lengths=lengths,
            priority_levels=levels,
        )
        ours, theirs = trace.build(seed), trace_oracle.build(trace, seed)
        assert ours.initial == theirs.initial
        pending = list(ours.initial)
        while pending:
            # Complete any outstanding request, after any service time.
            request = pending.pop(data.draw(st.integers(0, len(pending) - 1)))
            finish_s = request.arrival_s + data.draw(finite(0.0, 10.0))
            record = RequestRecord(
                request=request,
                first_scheduled_s=request.arrival_s,
                first_token_s=finish_s,
                finish_s=finish_s,
                energy_joules=0.0,
            )
            follow_up = ours.follow_up(record)
            assert follow_up == theirs.follow_up(record)
            if follow_up is not None:
                pending.append(follow_up)
