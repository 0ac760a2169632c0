"""The traffic generators as they drew through ``random.Random`` methods.

:mod:`repro.serving.traces` writes CPython's sampling formulas out in its
generation loops (``expovariate`` as ``-log(1.0 - random()) / rate``,
``lognormvariate`` as Kinderman–Monahan ``normalvariate`` then ``exp``)
and computes each length side's ``mu`` once per model.  This module keeps
the method-call versions those loops replaced, over the same frozen trace
objects, as the test oracle: for every seed and parameter set, each
generator must yield requests ``==`` to the ones built here.

Nothing here imports the generators' private helpers: the named random
streams, the rate profile and the length draws are spelled out again.
"""

from __future__ import annotations

import math
import random
from typing import Iterator, List, Optional

from repro.serving.request import Request, RequestRecord
from repro.serving.traces import (
    BurstyTrace,
    ClosedLoopTrace,
    DiurnalTrace,
    LengthModel,
    PoissonTrace,
    RequestSource,
)


def named_rng(kind: str, seed: int) -> random.Random:
    """A named, decorrelated random stream (one per trace kind / client)."""
    return random.Random(f"repro.serving:{kind}:{seed}")


def sample_length(rng: random.Random, lengths: LengthModel, mean: float, lo: int, hi: int) -> int:
    """One bounded log-normal length, ``mu`` recomputed per draw."""
    if lengths.sigma == 0:
        value = mean
    else:
        mu = math.log(mean) - lengths.sigma**2 / 2.0
        value = rng.lognormvariate(mu, lengths.sigma)
    return max(lo, min(hi, round(value)))


def sample_prompt(lengths: LengthModel, rng: random.Random) -> int:
    return sample_length(rng, lengths, lengths.prompt_mean, lengths.prompt_min, lengths.prompt_max)


def sample_output(lengths: LengthModel, rng: random.Random) -> int:
    return sample_length(rng, lengths, lengths.output_mean, lengths.output_min, lengths.output_max)


def make_request(
    request_id: int,
    arrival_s: float,
    lengths: LengthModel,
    rng: random.Random,
    priority_levels: int,
    client_id: Optional[int] = None,
) -> Request:
    priority = rng.randrange(priority_levels) if priority_levels > 1 else 0
    return Request(
        request_id=request_id,
        arrival_s=arrival_s,
        prompt_tokens=sample_prompt(lengths, rng),
        output_tokens=sample_output(lengths, rng),
        priority=priority,
        client_id=client_id,
    )


def poisson(trace: PoissonTrace, seed: int) -> RequestSource:
    rng = named_rng("poisson", seed)
    requests: List[Request] = []
    now = rng.expovariate(trace.rate_rps)
    while now < trace.duration_s:
        requests.append(
            make_request(len(requests), now, trace.lengths, rng, trace.priority_levels)
        )
        now += rng.expovariate(trace.rate_rps)
    return RequestSource(requests)


def bursty(trace: BurstyTrace, seed: int) -> RequestSource:
    rng = named_rng("bursty", seed)
    requests: List[Request] = []
    now = 0.0
    in_burst = False
    state_end = rng.expovariate(1.0 / trace.mean_base_s)
    while now < trace.duration_s:
        rate = trace.burst_rate_rps if in_burst else trace.base_rate_rps
        candidate = now + rng.expovariate(rate)
        if candidate >= state_end:
            now = state_end
            in_burst = not in_burst
            dwell = trace.mean_burst_s if in_burst else trace.mean_base_s
            state_end = now + rng.expovariate(1.0 / dwell)
            continue
        now = candidate
        if now >= trace.duration_s:
            break
        requests.append(
            make_request(len(requests), now, trace.lengths, rng, trace.priority_levels)
        )
    return RequestSource(requests)


def diurnal_rate_at(trace: DiurnalTrace, time_s: float) -> float:
    angle = 2.0 * math.pi * (time_s - trace.phase_s) / trace.period_s
    rate = trace.rate_rps * (1.0 + trace.amplitude * math.sin(angle))
    for start_s, spike_duration_s, extra_rate_rps in trace.spikes:
        if start_s <= time_s < start_s + spike_duration_s:
            rate += extra_rate_rps
    return max(rate, 0.0)


def diurnal_stream(trace: DiurnalTrace, seed: int) -> Iterator[Request]:
    rng = named_rng("diurnal", seed)
    peak = trace.rate_rps * (1.0 + trace.amplitude) + sum(
        extra for _, _, extra in trace.spikes
    )
    now = 0.0
    count = 0
    while True:
        now += rng.expovariate(peak)
        if now >= trace.duration_s:
            return
        if rng.random() * peak <= diurnal_rate_at(trace, now):
            yield make_request(count, now, trace.lengths, rng, trace.priority_levels)
            count += 1


def diurnal(trace: DiurnalTrace, seed: int) -> RequestSource:
    return RequestSource(diurnal_stream(trace, seed))


def closed_loop(trace: ClosedLoopTrace, seed: int) -> RequestSource:
    rngs = [named_rng(f"closed:{client}", seed) for client in range(trace.clients)]
    issued = [1] * trace.clients
    next_id = [trace.clients]

    initial = [
        make_request(
            client,
            rngs[client].expovariate(1.0 / trace.mean_think_s),
            trace.lengths,
            rngs[client],
            trace.priority_levels,
            client_id=client,
        )
        for client in range(trace.clients)
    ]

    def follow_up(record: RequestRecord) -> Optional[Request]:
        client = record.request.client_id
        if client is None or issued[client] >= trace.requests_per_client:
            return None
        issued[client] += 1
        rng = rngs[client]
        arrival = record.finish_s + rng.expovariate(1.0 / trace.mean_think_s)
        request = make_request(
            next_id[0], arrival, trace.lengths, rng, trace.priority_levels,
            client_id=client,
        )
        next_id[0] += 1
        return request

    return RequestSource(initial, follow_up)


def build(trace, seed: int) -> RequestSource:
    """The oracle's ``trace.build(seed)``."""
    builders = {
        PoissonTrace: poisson,
        BurstyTrace: bursty,
        DiurnalTrace: diurnal,
        ClosedLoopTrace: closed_loop,
    }
    return builders[type(trace)](trace, seed)
