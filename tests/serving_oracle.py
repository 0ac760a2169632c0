"""The serving-engine oracle: the single-platform loop serve used to run.

:class:`repro.fleet.FleetSimulator` is the package's only serving engine;
``repro serve`` runs as a one-replica fleet
(:func:`repro.fleet.simulator.serve_source`).  This module keeps the
engine it replaced, an independent second implementation of the same
serving semantics: :class:`ServingSimulator` admits every arrival up to
the current instant before each pick, serves one grant at a time with
:func:`serve_grant`, and issues closed-loop follow-ups as records
complete.  Its :class:`ServingResult` also records the queue-depth
samples, from which ``_time_weighted_depth`` computes the time-weighted
mean and the peak the way ``ServingMetrics`` used to.

``tests/serving/test_serving_oracle.py`` requires the fleet path to give
``==`` records, makespan, busy time and queue depths.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from repro.errors import SimulationError
from repro.serving.costs import RequestCostModel
from repro.serving.policies import ReadyQueue, SchedulingPolicy, get_policy
from repro.serving.request import ActiveRequest, RequestPhase, RequestRecord
from repro.serving.traces import RequestSource


@dataclass(frozen=True)
class ServingResult:
    """Raw outcome of one serving simulation (before metric aggregation).

    Attributes:
        policy: Canonical name of the scheduling policy that ran.
        records: One :class:`RequestRecord` per request, in completion
            order (every admitted request is drained).
        makespan_s: Virtual time at which the last request finished.
        busy_s: Total virtual time the engine spent serving.
        queue_samples: ``(time, in-system count)`` at every admission and
            completion — the queue-depth timeline.
        busy_intervals: Merged ``(start, end)`` intervals of engine
            activity — the utilisation timeline.
    """

    policy: str
    records: Tuple[RequestRecord, ...]
    makespan_s: float
    busy_s: float
    queue_samples: Tuple[Tuple[float, int], ...]
    busy_intervals: Tuple[Tuple[float, float], ...]

    @property
    def num_requests(self) -> int:
        """Number of completed requests."""
        return len(self.records)

    @property
    def utilisation(self) -> float:
        """Fraction of the makespan the engine spent serving."""
        if self.makespan_s <= 0:
            return 0.0
        return self.busy_s / self.makespan_s

    @property
    def generated_tokens(self) -> int:
        """Output tokens emitted across all requests."""
        return sum(record.request.output_tokens for record in self.records)

    @property
    def prompt_tokens(self) -> int:
        """Prompt tokens ingested across all requests."""
        return sum(record.request.prompt_tokens for record in self.records)


class ServingSimulator:
    """Serves a request stream with one policy on one cost model.

    Args:
        costs: Phase-cost model (any object with ``prefill_cost`` /
            ``decode_cost``; normally a :class:`RequestCostModel`).
        policy: Registered policy name (or a policy instance).
    """

    def __init__(
        self,
        costs: RequestCostModel,
        policy: Union[str, SchedulingPolicy] = "fifo",
    ) -> None:
        self.costs = costs
        self.policy = get_policy(policy) if isinstance(policy, str) else policy

    def run(self, source: RequestSource) -> ServingResult:
        """Drain the request stream and return the per-request records."""
        arrivals: List[Tuple[float, int, object]] = [
            (request.arrival_s, request.request_id, request)
            for request in source.initial
        ]
        heapq.heapify(arrivals)

        ready = ReadyQueue(self.policy)
        records: List[RequestRecord] = []
        queue_samples: List[Tuple[float, int]] = []
        busy_intervals: List[Tuple[float, float]] = []
        now = 0.0
        busy_s = 0.0

        def admit_until(time_s: float) -> None:
            """Admit every arrival with ``arrival_s <= time_s``."""
            while arrivals and arrivals[0][0] <= time_s:
                _, _, request = heapq.heappop(arrivals)
                if request.request_id in ready:
                    raise SimulationError(
                        f"duplicate request id {request.request_id} admitted"
                    )
                ready.add(ActiveRequest(request=request))
                queue_samples.append((request.arrival_s, len(ready)))

        while True:
            admit_until(now)
            if not ready:
                if not arrivals:
                    break
                now = max(now, arrivals[0][0])
                continue

            chosen = ready.select(now)
            grant = serve_grant(self.policy, self.costs, chosen, now)
            busy_s += grant
            if busy_intervals and busy_intervals[-1][1] == now:
                busy_intervals[-1] = (busy_intervals[-1][0], now + grant)
            else:
                busy_intervals.append((now, now + grant))
            now += grant
            # Admit arrivals that landed during the grant before recording
            # the completion, so the queue-depth timeline stays in time
            # order and counts the in-service request at those instants.
            admit_until(now)

            if chosen.is_done:
                chosen.phase = RequestPhase.DONE
                record = chosen.finish(now)
                del ready[chosen.request.request_id]
                records.append(record)
                queue_samples.append((now, len(ready)))
                successor = source.follow_up(record)
                if successor is not None:
                    if successor.arrival_s < now:
                        raise SimulationError(
                            "closed-loop follow-up arrives before the reply "
                            "it reacts to"
                        )
                    heapq.heappush(
                        arrivals,
                        (successor.arrival_s, successor.request_id, successor),
                    )
            else:
                ready.requeue(chosen)

        return ServingResult(
            policy=self.policy.name,
            records=tuple(records),
            makespan_s=now,
            busy_s=busy_s,
            queue_samples=tuple(queue_samples),
            busy_intervals=tuple(busy_intervals),
        )


def serve_grant(
    policy: SchedulingPolicy,
    costs: RequestCostModel,
    chosen: ActiveRequest,
    now: float,
    decode_cache: Optional[List[Optional[Tuple[float, float]]]] = None,
) -> float:
    """Advance ``chosen`` by one service grant; returns its duration.

    A request that has not been prefilled gets its prefill pass; otherwise
    it decodes ``policy.decode_quantum`` steps (all remaining steps when
    the quantum is ``None``).  ``decode_cache``, indexed by context
    length, memoises each decode step's ``(seconds, energy)``; without it
    every step asks ``costs``.  The fleet keeps one cache per replica.
    """
    request = chosen.request
    if not chosen.prefill_done:
        cost = costs.prefill_cost(request.prompt_tokens)
        if chosen.first_scheduled_s is None:
            chosen.first_scheduled_s = now
        chosen.phase = RequestPhase.PREFILL
        chosen.first_token_s = now + cost.seconds
        chosen.tokens_emitted = 1
        chosen.energy_joules += cost.energy_joules
        chosen.phase = RequestPhase.DECODE
        return cost.seconds

    quantum = policy.decode_quantum
    remaining = chosen.remaining_tokens
    steps = remaining if quantum is None else min(quantum, remaining)
    if steps <= 0:
        raise SimulationError(
            f"policy {policy.name!r} selected the finished request "
            f"{request.request_id}"
        )
    seconds = 0.0
    energy = 0.0
    base = request.prompt_tokens + chosen.tokens_emitted
    for context in range(base, base + steps):
        # The k-th decode step of the reply attends to the prompt plus
        # the tokens emitted so far (matching analysis/generation.py).
        pair = None if decode_cache is None else decode_cache[context]
        if pair is None:
            cost = costs.decode_cost(context)
            pair = (cost.seconds, cost.energy_joules)
            if decode_cache is not None:
                decode_cache[context] = pair
        seconds += pair[0]
        energy += pair[1]
    chosen.tokens_emitted += steps
    chosen.energy_joules += energy
    return seconds


def _time_weighted_depth(result: ServingResult) -> Tuple[float, int]:
    """(time-weighted mean, peak) of the queue-depth timeline."""
    samples = result.queue_samples
    if not samples or result.makespan_s <= 0:
        return 0.0, 0
    area = 0.0
    for (time_s, depth), (next_time_s, _) in zip(samples, samples[1:]):
        area += depth * (next_time_s - time_s)
    last_time, last_depth = samples[-1]
    area += last_depth * (result.makespan_s - last_time)
    return area / result.makespan_s, max(depth for _, depth in samples)
