"""Benchmark: the serving simulator must stay far faster than real time.

The serving loop is what every capacity study, policy comparison, and CI
smoke run spins; its value depends on simulating minutes of traffic in
well under a second.  This benchmark serves a 5-minute Poisson trace
(~600 requests, ~19k generated tokens) through each shipped policy and
asserts two properties:

* the simulator sustains at least ``MIN_SPEEDUP`` simulated seconds per
  wall-clock second (cost-model evaluations included, memoisation on);
* every policy drains the identical request set — same request count and
  token totals — so the policies differ only in *ordering*, never in the
  amount of work served.
"""

from __future__ import annotations

import time

from repro.api import Session
from repro.models import tinyllama_42m
from repro.serving import PoissonTrace, list_policies

#: Virtual seconds of traffic the benchmark serves per policy.
TRACE_DURATION_S = 300.0

#: Required ratio of simulated time to wall-clock time.
MIN_SPEEDUP = 100.0


def test_serving_simulator_outruns_real_time(run_once):
    config = tinyllama_42m()
    trace = PoissonTrace(rate_rps=2.0, duration_s=TRACE_DURATION_S)
    session = Session()
    policies = list_policies()

    # Warm the phase-cost cache so the measured section times the event
    # loop, not the first-touch block evaluations.
    session.serve(config, trace, policy="fifo", chips=8, seed=0)

    def measure():
        reports = {}
        start = time.perf_counter()
        for policy in policies:
            reports[policy] = session.serve(
                config, trace, policy=policy, chips=8, seed=0
            )
        return time.perf_counter() - start, reports

    elapsed, reports = run_once(measure)
    simulated = sum(report.metrics.makespan_s for report in reports.values())
    speedup = simulated / elapsed

    first = reports[policies[0]]
    for policy, report in reports.items():
        assert report.metrics.requests == first.metrics.requests, policy
        assert report.result.generated_tokens == first.result.generated_tokens
        assert report.result.prompt_tokens == first.result.prompt_tokens

    print(
        f"\n{len(policies)} policies x {first.metrics.requests} requests "
        f"({first.result.generated_tokens} tokens): {elapsed * 1e3:.1f} ms "
        f"wall, {speedup:,.0f}x real time"
    )
    assert speedup > MIN_SPEEDUP, (
        f"simulator ran only {speedup:.0f}x real time "
        f"(budget: {MIN_SPEEDUP:.0f}x)"
    )
