"""The serving engine: a discrete-event simulator over platform replicas.

Every platform replica is a *subsimulator* (its own admitted-request
set, scheduling policy, and non-preemptive service grants,
:func:`serve_grant`, with phase costs from a Session-memoised
:class:`~repro.serving.costs.RequestCostModel`), and one fleet-level
event loop advances all of them together.  The heap holds the event
kinds below — grant completions, fault transitions, retry/timeout/hedge
timers, autoscaler ticks, timeline windows, the *next* trace arrival
(arrivals are pulled lazily from an iterator, so a day-long
million-request trace never materialises in memory), and closed-loop
follow-ups — and ties break on a deterministic sequence number, which
together with seeded traces and stateless-per-run routers makes
equal-input fleet runs byte-identical.

A replica picks only after every arrival due at that instant is queued:
while a stream arrival or follow-up at the current time is still in the
heap, the pick waits (the replica counts as busy meanwhile, as if it had
picked).  A single-platform ``serve`` is a one-replica fleet,
:func:`serve_source`, whose ``on_complete`` hook collects the records and
returns closed-loop follow-ups.

On arrival a request passes admission control
(:mod:`repro.fleet.admission`), is dispatched by the routing policy
(:mod:`repro.fleet.routers`) to one in-service replica, and then lives
entirely on that replica until its last token.  Completions stream into
the bounded-memory accumulators of :mod:`repro.fleet.metrics`; no
per-request record list is kept.  A reactive autoscaler
(:mod:`repro.fleet.autoscaler`) may add replicas from a platform preset
or drain them (drained replicas finish their queue, are never offered
to the router again, and retire once empty).

Fault injection (:mod:`repro.fleet.faults`) threads through the same
loop: crashed replicas leave the dispatch set (so routers are
health-aware by construction), their in-flight requests fail over under
the :class:`~repro.fleet.faults.RetryPolicy`, stragglers and brownouts
stretch grant durations, and graceful degradation sheds low-priority
classes while healthy capacity is below the configured floor.  All of
it is guarded: a run with no fault model and no retry policy executes
exactly the fault-free code path and produces bit-identical results.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import AnalysisError, ConfigurationError, ReproError, SimulationError
from ..hw.presets import get_platform_preset
from ..serving.costs import RequestCostModel
from ..serving.metrics import DEFAULT_SLO_TTFT_TARGETS_S, ServingResult
from ..serving.policies import ReadyQueue, SchedulingPolicy, get_policy
from ..serving.request import ActiveRequest, Request, RequestPhase, RequestRecord
from ..serving.traces import RequestSource, TrafficTrace
from ..spec.base import SpecBase, register, spec_error
from .admission import AdmissionController
from .autoscaler import Autoscaler, AutoscalerConfig, ScaleEvent
from .faults import FaultModel, RetryPolicy
from .metrics import (
    DEFAULT_RECORD_THRESHOLD,
    FleetResult,
    ReplicaStats,
    ResilienceStats,
    StreamingSummary,
)
from .routers import RoutingPolicy, get_router

__all__ = [
    "FleetPlatform",
    "FleetSimulator",
    "ReplicaTemplate",
    "iter_requests",
    "serve_grant",
    "serve_source",
]

#: Valid routing-pool tags of a replica.
REPLICA_ROLES = ("any", "prefill", "decode")

#: Event ordering at equal timestamps: completions first, then fault
#: transitions and failover timers, then scaling and timeline ticks,
#: then new arrivals, the stream's before closed-loop follow-ups.  A
#: fault-free run pushes none of the fault kinds, so its event sequence
#: is identical to the fault-free engine's.
_KIND_GRANT_END = 0
_KIND_FAULT = 1
_KIND_TIMEOUT = 2
_KIND_RETRY = 3
_KIND_HEDGE = 4
_KIND_SCALE_TICK = 5
_KIND_WINDOW_TICK = 6
_KIND_ARRIVAL = 7
_KIND_FOLLOW_UP = 8


@register
@dataclass(frozen=True)
class FleetPlatform(SpecBase):
    """One heterogeneous platform entry of a fleet, as the user states it.

    Spec kind ``fleet_platform``; accepts the :meth:`parse` shorthand as a
    bare string in documents.

    Attributes:
        preset: Registered platform-preset name.
        chips: Chip count (the preset's default when ``None``).
        replicas: How many identical replicas of this platform to run.
        role: Routing-pool tag (``any``, ``prefill``, or ``decode``).
    """

    kind = "fleet_platform"

    preset: str = "siracusa-mipi"
    chips: Optional[int] = None
    replicas: int = 1
    role: str = "any"

    def __post_init__(self) -> None:
        if not self.preset:
            raise ConfigurationError("a fleet platform needs a preset name")
        if self.chips is not None and self.chips <= 0:
            raise ConfigurationError(f"chips must be positive, got {self.chips}")
        if self.replicas < 1:
            raise ConfigurationError(
                f"replicas must be at least 1, got {self.replicas}"
            )
        if self.role not in REPLICA_ROLES:
            raise ConfigurationError(
                f"unknown replica role {self.role!r}; choose from "
                + ", ".join(REPLICA_ROLES)
            )

    @classmethod
    def parse(cls, text: str) -> "FleetPlatform":
        """Parse the CLI shorthand ``preset[:chips][xN][@role]``.

        Examples: ``siracusa-mipi``, ``siracusa-mipi:8``,
        ``siracusa-mipi:8x2``, ``siracusa-big-l2:4x2@decode``.
        """
        original = text
        role = "any"
        if "@" in text:
            text, _, role = text.partition("@")
        chips: Optional[int] = None
        replicas = 1
        preset, _, rest = text.partition(":")
        if rest:
            count_text, _, replica_text = rest.partition("x")
            try:
                chips = int(count_text)
                if replica_text:
                    replicas = int(replica_text)
            except ValueError:
                raise ConfigurationError(
                    f"cannot parse fleet platform {original!r}; expected "
                    "preset[:chips][xN][@role], e.g. siracusa-mipi:8x2@prefill"
                ) from None
        if not preset:
            raise ConfigurationError(
                f"cannot parse fleet platform {original!r}; expected "
                "preset[:chips][xN][@role], e.g. siracusa-mipi:8x2@prefill"
            )
        return cls(preset=preset, chips=chips, replicas=replicas, role=role)

    @classmethod
    def from_dict(cls, data: Any, path: str = "$") -> "FleetPlatform":
        if isinstance(data, str):
            try:
                return cls.parse(data)
            except ConfigurationError as error:
                raise spec_error(path, str(error)) from None
        return super().from_dict(data, path)

    def validate(self, path: str = "$") -> None:
        """Check that the entry's preset is registered."""
        try:
            get_platform_preset(self.preset)
        except ReproError as error:
            raise spec_error(f"{path}.preset", str(error)) from None


@dataclass(frozen=True)
class ReplicaTemplate:
    """A resolved replica recipe: platform identity plus its cost model."""

    preset: str
    chips: int
    role: str
    costs: RequestCostModel


def iter_requests(trace: TrafficTrace, seed: int) -> Iterator[Request]:
    """The open-loop arrival stream of a trace, lazily where possible.

    Traces exposing a ``stream(seed)`` generator (e.g.
    :class:`~repro.serving.traces.DiurnalTrace`) are iterated without
    materialising the request list; anything else falls back to
    ``build(seed)``.  Closed-loop traces are rejected: fleet arrivals
    must not depend on completions, or request conservation across
    replicas would be unverifiable.
    """
    stream = getattr(trace, "stream", None)
    if stream is not None:
        return iter(stream(seed))
    source = trace.build(seed)
    if not isinstance(source, RequestSource):  # defensive: protocol misuse
        raise ConfigurationError(
            f"trace {type(trace).__name__} did not build a RequestSource"
        )
    if source.is_closed_loop:
        raise ConfigurationError(
            "closed-loop traces cannot drive a fleet: arrivals would depend "
            "on completions; use an open-loop trace (poisson, bursty, "
            "diurnal, replay)"
        )
    return iter(source.initial)


class _Replica:
    """One platform subsimulator (also the router's read-only view).

    ``active`` is the replica's ready queue: every request dispatched to
    it and not yet finished, the one in service included.
    """

    __slots__ = (
        "replica_id",
        "preset",
        "chips",
        "role",
        "source",
        "costs",
        "active",
        "busy",
        "busy_s",
        "added_s",
        "drained_s",
        "draining",
        "completed",
        "decode_cache",
        "crashed",
        "crashed_by",
        "down_since",
        "downtime_s",
        "slow_factor",
        "grant_epoch",
        "grant_info",
    )

    def __init__(
        self,
        replica_id: int,
        template: ReplicaTemplate,
        source: str,
        added_s: float,
        policy: SchedulingPolicy,
    ) -> None:
        self.replica_id = replica_id
        self.preset = template.preset
        self.chips = template.chips
        self.role = template.role
        self.source = source
        self.costs = template.costs
        self.active = ReadyQueue(policy)
        self.busy = False
        self.busy_s = 0.0
        self.added_s = added_s
        self.drained_s: Optional[float] = None
        self.draining = False
        self.completed = 0
        self.decode_cache: List[Optional[Tuple[float, float]]] = [None] * (
            template.costs.max_context + 1
        )
        # Fault-injection state; inert (and never mutated) on the
        # fault-free path.
        self.crashed = False
        self.crashed_by: Optional[object] = None
        self.down_since: Optional[float] = None
        self.downtime_s = 0.0
        self.slow_factor = 1.0
        self.grant_epoch = 0
        self.grant_info: Optional[Tuple[ActiveRequest, float, float]] = None

    @property
    def queue_depth(self) -> int:
        return len(self.active)


class FleetSimulator:
    """Serves one arrival stream across N platform replicas.

    Args:
        replicas: Static replica recipes (at least one).
        router: Registered router name or a fresh
            :class:`~repro.fleet.routers.RoutingPolicy` instance.
        policy: Per-replica scheduling policy name (or instance).
        admission: Admission controller; a default-constructed one
            (a single unlimited class that keeps every request's own
            priority) when ``None``.
        autoscaler: Reactive-scaling knobs; scaling is off when ``None``.
        scale_template: Replica recipe the autoscaler adds from
            (required when ``autoscaler`` is given).
        slo_targets: TTFT targets of the exact attainment curve.
        record_threshold: Completions beyond which latency percentiles
            switch to the streaming histogram.
        timeline_window_s: Aggregation window of the fleet timeline.
        faults: Fault schedule to inject (crashes, stragglers,
            brownouts, graceful degradation); ``None`` runs the exact
            fault-free engine.
        retry: Failover policy of crashed requests (timeouts, bounded
            retries, hedging); with faults but no policy, requests on a
            crashed replica fail on their first crash.
    """

    def __init__(
        self,
        replicas: Sequence[ReplicaTemplate],
        *,
        router: "str | RoutingPolicy" = "round_robin",
        policy: "str | SchedulingPolicy" = "fifo",
        admission: Optional[AdmissionController] = None,
        autoscaler: Optional[AutoscalerConfig] = None,
        scale_template: Optional[ReplicaTemplate] = None,
        slo_targets: Sequence[float] = DEFAULT_SLO_TTFT_TARGETS_S,
        record_threshold: int = DEFAULT_RECORD_THRESHOLD,
        timeline_window_s: float = 60.0,
        faults: Optional[FaultModel] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        if not replicas:
            raise ConfigurationError("a fleet needs at least one replica")
        if record_threshold < 1:
            raise ConfigurationError("record_threshold must be at least 1")
        if timeline_window_s <= 0:
            raise ConfigurationError("timeline_window_s must be positive")
        if autoscaler is not None and scale_template is None:
            raise ConfigurationError(
                "an autoscaled fleet needs a scale_template to build "
                "replicas from"
            )
        if faults is not None:
            faults.validate_replicas(len(replicas))
        self.router = get_router(router) if isinstance(router, str) else router
        self.policy = get_policy(policy) if isinstance(policy, str) else policy
        self.admission = admission if admission is not None else AdmissionController()
        self.autoscaler = Autoscaler(autoscaler) if autoscaler is not None else None
        self.scale_template = scale_template
        self.slo_targets = tuple(slo_targets)
        self.record_threshold = record_threshold
        self.timeline_window_s = timeline_window_s
        self.faults = faults
        self.retry = retry
        self._templates = tuple(replicas)

    # ------------------------------------------------------------------
    # The event loop
    # ------------------------------------------------------------------
    def run(
        self,
        requests: Iterable[Request],
        on_complete: Optional[Callable[[RequestRecord], Optional[Request]]] = None,
    ) -> FleetResult:
        """Drain the arrival stream and return the aggregated result.

        Args:
            requests: Arrivals in time order, pulled one at a time.
            on_complete: Called with the :class:`RequestRecord` of every
                completed request; a request it returns is a closed-loop
                follow-up, which arrives at its ``arrival_s`` (not before
                the completion) without pulling ``requests``.
        """
        all_replicas: List[_Replica] = [
            _Replica(index, template, "static", 0.0, self.policy)
            for index, template in enumerate(self._templates)
        ]
        serving: List[_Replica] = list(all_replicas)
        scaled_stack: List[_Replica] = []  # autoscaled, most recent last

        fault_model = self.faults
        retry = self.retry
        stamp = self.admission.stamps_priority
        # One flag guards every fault/failover code path: when False the
        # loop below executes exactly the fault-free engine.
        resilient = fault_model is not None or retry is not None
        static_count = len(self._templates)

        events: List[Tuple[float, int, int, object]] = []
        seq = 0

        def push(time_s: float, kind: int, payload: object) -> None:
            nonlocal seq
            heapq.heappush(events, (time_s, kind, seq, payload))
            seq += 1

        arrival_iter = iter(requests)
        # Arrival times in the heap: the one stream arrival pulled ahead
        # (None once the stream is drained) and every pending follow-up.
        next_arrival_s: Optional[float] = 0.0
        follow_up_times: List[float] = []

        def push_next_arrival() -> None:
            nonlocal next_arrival_s
            request = next(arrival_iter, None)
            if request is None:
                next_arrival_s = None
                return
            if request.arrival_s < next_arrival_s:  # type: ignore[operator]
                raise SimulationError(
                    "trace arrivals are not in time order "
                    f"(request {request.request_id} at {request.arrival_s})"
                )
            next_arrival_s = request.arrival_s
            push(request.arrival_s, _KIND_ARRIVAL, request)

        # Streaming accumulators.
        queue_wait = StreamingSummary(self.record_threshold)
        ttft = StreamingSummary(self.record_threshold)
        tpot = StreamingSummary(self.record_threshold)
        e2e = StreamingSummary(self.record_threshold)
        slo_hits = [0] * len(self.slo_targets)
        class_of: Dict[int, int] = {}  # request_id -> class index
        arrived = admitted = rejected = completed = 0
        generated_tokens = prompt_tokens = 0
        total_energy = 0.0
        makespan = 0.0
        window_completed = window_slo_met = 0  # autoscaler window
        busy_bins: Dict[int, float] = {}
        window_s = self.timeline_window_s
        timeline: List[Tuple[float, int, int, float]] = []
        scaling_events: List[ScaleEvent] = []
        window_index = 0

        # Resilience accumulators (all inert on the fault-free path).
        crashes = recoveries = retries = failed = timed_out = shed = 0
        hedges = hedge_wins = first_attempt_completed = 0
        wasted_busy_s = unavailable_s = 0.0
        outage_start: Optional[float] = None
        outage_windows = 0
        crashed_now = slow_active = brownout_active = in_backoff = 0
        brownout = 1.0
        healthy_completed = degraded_completed = 0
        slo_hits_healthy = [0] * len(self.slo_targets)
        slo_hits_degraded = [0] * len(self.slo_targets)
        attempts_of: Dict[int, int] = {}  # request_id -> crash failovers
        deadline_of: Dict[int, float] = {}  # request_id -> service deadline
        copies: Dict[int, List[_Replica]] = {}  # request_id -> live copies
        kept_classes: Optional[frozenset] = None
        if fault_model is not None and fault_model.shed_below is not None:
            ranked = sorted(
                range(len(self.admission.classes)),
                key=lambda i: (-self.admission.classes[i].priority, i),
            )
            kept_classes = frozenset(ranked[: fault_model.shed_keep])

        def work_remains() -> bool:
            return (
                next_arrival_s is not None
                or bool(follow_up_times)
                or in_backoff > 0
                or any(r.active for r in all_replicas)
            )

        def add_busy(start_s: float, end_s: float, sign: float = 1.0) -> None:
            index = int(start_s / window_s)
            cursor = start_s
            while cursor < end_s:
                edge = (index + 1) * window_s
                span = min(end_s, edge) - cursor
                busy_bins[index] = busy_bins.get(index, 0.0) + span * sign
                cursor = edge
                index += 1

        # Replicas whose pick waits for the arrivals due at this instant.
        deferred: List[_Replica] = []

        def start_grant(replica: _Replica, now: float) -> None:
            nonlocal hedge_wins, seq
            if next_arrival_s == now or (follow_up_times and follow_up_times[0] == now):
                replica.busy = True  # as if it had picked: no second pick
                deferred.append(replica)
                return
            chosen = replica.active.select(now)
            if resilient:
                # First copy to enter service wins a hedge race: cancel
                # the still-queued sibling before any work is charged.
                rid = chosen.request.request_id
                race = copies.get(rid)
                if race is not None and len(race) > 1:
                    for other in race:
                        if other is not replica:
                            other.active.pop(rid, None)
                            if (
                                other.draining
                                and not other.active
                                and not other.busy
                                and other.drained_s is None
                            ):
                                retire(other, now)
                    if replica is not race[0]:
                        hedge_wins += 1
                    copies[rid] = [replica]
            duration = serve_grant(
                self.policy, replica.costs, chosen, now, replica.decode_cache
            )
            if resilient:
                factor = replica.slow_factor * brownout
                if factor != 1.0:
                    duration *= factor
            end = now + duration
            replica.busy = True
            replica.busy_s += duration
            replica.grant_info = (chosen, now, end)
            window = int(now / window_s)
            if end <= (window + 1) * window_s:  # add_busy's one-window case
                busy_bins[window] = busy_bins.get(window, 0.0) + (end - now)
            else:
                add_busy(now, end)
            payload = (replica, chosen, replica.grant_epoch)
            heapq.heappush(events, (end, _KIND_GRANT_END, seq, payload))
            seq += 1

        def retire(replica: _Replica, now: float) -> None:
            nonlocal outage_start
            replica.drained_s = now
            try:
                serving.remove(replica)
            except ValueError:
                pass  # already out of the dispatch set (drain removed it)
            scaling_events.append(
                ScaleEvent(
                    time_s=now,
                    action="retire",
                    replica_id=replica.replica_id,
                    reason="queue-empty",
                    replicas=len(serving),
                )
            )
            if resilient and not serving and outage_start is None:
                outage_start = now

        def dispatch(request: Request, pool: List[_Replica], now: float) -> _Replica:
            chosen_replica = self.router.route(request, pool, now)
            valid = any(chosen_replica is replica for replica in pool)
            if not valid or chosen_replica.draining:
                raise SimulationError(
                    f"router {self.router.name!r} dispatched request "
                    f"{request.request_id} to a drained or unknown "
                    "replica"
                )
            if request.request_id in chosen_replica.active:
                raise SimulationError(
                    f"duplicate request id {request.request_id} "
                    f"admitted on replica {chosen_replica.replica_id}"
                )
            return chosen_replica

        def fail_request(rid: int) -> None:
            class_of.pop(rid, None)
            attempts_of.pop(rid, None)
            deadline_of.pop(rid, None)
            copies.pop(rid, None)

        def fail_over(rid: int, request: Request, now: float) -> None:
            """Decide a crashed (or stranded) request's next attempt."""
            nonlocal failed, in_backoff
            attempts = attempts_of.get(rid, 0) + 1
            attempts_of[rid] = attempts
            budget = retry.max_retries if retry is not None else 0
            backoff = retry.backoff_for(attempts) if retry is not None else 0.0
            when = now + backoff
            deadline = deadline_of.get(rid)
            if attempts <= budget and (deadline is None or when <= deadline):
                copies[rid] = []  # in backoff: queued nowhere
                in_backoff += 1
                push(when, _KIND_RETRY, (rid, request))
            else:
                failed += 1
                fail_request(rid)

        def place(
            replica: _Replica,
            request: Request,
            now: float,
            *,
            hedged: bool = False,
        ) -> None:
            """Queue one (possibly retried or hedged) copy on a replica."""
            rid = request.request_id
            active = ActiveRequest(
                request=request,
                attempt=attempts_of.get(rid, 0),
                deadline_s=deadline_of.get(rid),
                hedged=hedged,
            )
            replica.active.add(active)
            if hedged:
                copies[rid].append(replica)
            else:
                copies[rid] = [replica]
            if retry is not None and retry.hedge_after_s is not None:
                push(now + retry.hedge_after_s, _KIND_HEDGE, (rid, request))
            if not replica.busy:
                start_grant(replica, now)

        # The fleet's serving window; only a joining replica can shrink it.
        max_context = min(r.costs.max_context for r in all_replicas)
        push_next_arrival()
        if self.autoscaler is not None:
            push(
                self.autoscaler.config.check_interval_s,
                _KIND_SCALE_TICK,
                None,
            )
        push(self.timeline_window_s, _KIND_WINDOW_TICK, None)
        if fault_model is not None:
            for event in fault_model.schedule(tuple(range(static_count))):
                if event.fault == "crash":
                    push(event.start_s, _KIND_FAULT, ("crash", event))
                    if event.end_s is not None:
                        push(event.end_s, _KIND_FAULT, ("recover", event))
                elif event.fault == "slowdown":
                    push(event.start_s, _KIND_FAULT, ("slow_start", event))
                    push(event.end_s, _KIND_FAULT, ("slow_end", event))
                else:  # brownout
                    push(event.start_s, _KIND_FAULT, ("brownout_start", event))
                    push(event.end_s, _KIND_FAULT, ("brownout_end", event))

        now = 0.0
        while events or deferred:
            if deferred and not (
                next_arrival_s == now or (follow_up_times and follow_up_times[0] == now)
            ):
                # Every arrival of this instant is queued: pick, unless the
                # instant's other events emptied or retired the replica.
                for replica in deferred:
                    replica.busy = False
                    if replica.active:
                        start_grant(replica, now)
                    elif replica.draining and replica.drained_s is None:
                        retire(replica, now)
                deferred.clear()
                continue
            now, kind, _, payload = heapq.heappop(events)

            if kind == _KIND_GRANT_END:
                replica, chosen, epoch = payload  # type: ignore[misc]
                if epoch != replica.grant_epoch:
                    continue  # the grant was aborted by a crash
                replica.busy = False
                replica.grant_info = None
                request = chosen.request
                if chosen.tokens_emitted >= request.output_tokens:
                    chosen.phase = RequestPhase.DONE
                    del replica.active[request.request_id]
                    index = class_of.pop(request.request_id)
                    wait_s = chosen.first_scheduled_s - request.arrival_s
                    ttft_s = chosen.first_token_s - request.arrival_s
                    e2e_s = now - request.arrival_s
                    queue_wait.add(wait_s)
                    ttft.add(ttft_s)
                    e2e.add(e2e_s)
                    if request.output_tokens > 1:
                        tpot.add(
                            (now - chosen.first_token_s)
                            / (request.output_tokens - 1)
                        )
                    for position, target in enumerate(self.slo_targets):
                        if ttft_s <= target:
                            slo_hits[position] += 1
                    self.admission.complete(index, ttft_s)
                    completed += 1
                    replica.completed += 1
                    generated_tokens += request.output_tokens
                    prompt_tokens += request.prompt_tokens
                    total_energy += chosen.energy_joules
                    makespan = now
                    window_completed += 1
                    if (
                        self.autoscaler is not None
                        and self.autoscaler.config.ttft_slo_s is not None
                        and ttft_s <= self.autoscaler.config.ttft_slo_s
                    ):
                        window_slo_met += 1
                    if resilient:
                        rid = request.request_id
                        if attempts_of.pop(rid, 0) == 0:
                            first_attempt_completed += 1
                        deadline_of.pop(rid, None)
                        copies.pop(rid, None)
                        degraded = (
                            crashed_now > 0
                            or slow_active > 0
                            or brownout_active > 0
                        )
                        if degraded:
                            degraded_completed += 1
                            split_hits = slo_hits_degraded
                        else:
                            healthy_completed += 1
                            split_hits = slo_hits_healthy
                        for position, target in enumerate(self.slo_targets):
                            if ttft_s <= target:
                                split_hits[position] += 1
                    if on_complete is not None:
                        follow_up = on_complete(chosen.finish(now))
                        if follow_up is not None:
                            if follow_up.arrival_s < now:
                                raise SimulationError(
                                    "closed-loop follow-up arrives before the "
                                    "reply it reacts to"
                                )
                            heapq.heappush(follow_up_times, follow_up.arrival_s)
                            push(follow_up.arrival_s, _KIND_FOLLOW_UP, follow_up)
                else:
                    replica.active.requeue(chosen)
                if replica.active:
                    start_grant(replica, now)
                elif replica.draining and replica.drained_s is None:
                    retire(replica, now)

            elif kind == _KIND_FAULT:
                action, event = payload  # type: ignore[misc]
                if action == "crash":
                    replica = all_replicas[event.replica]
                    if not replica.crashed and replica.drained_s is None:
                        crashes += 1
                        crashed_now += 1
                        replica.crashed = True
                        replica.crashed_by = event
                        replica.down_since = now
                        if replica in serving:
                            serving.remove(replica)
                        if not serving and outage_start is None:
                            outage_start = now
                        if replica in deferred:
                            # Its pick was waiting on this instant's
                            # arrivals: nothing in flight to abort.
                            deferred.remove(replica)
                            replica.busy = False
                        elif replica.busy:
                            # Abort the in-flight grant: roll back its
                            # unserved remainder, charge the served part
                            # as wasted work.
                            assert replica.grant_info is not None
                            _, grant_start, grant_end = replica.grant_info
                            replica.busy_s -= grant_end - now
                            add_busy(now, grant_end, -1.0)
                            wasted_busy_s += now - grant_start
                            replica.busy = False
                            replica.grant_epoch += 1
                            replica.grant_info = None
                        victims = [
                            (rid, replica.active[rid].request)
                            for rid in sorted(replica.active)
                        ]
                        for rid, _request in victims:
                            replica.active[rid].phase = RequestPhase.FAILED
                        replica.active.clear()
                        for rid, victim in victims:
                            race = copies.get(rid)
                            if race is not None and len(race) > 1:
                                # A hedged sibling survives elsewhere.
                                race.remove(replica)
                                continue
                            fail_over(rid, victim, now)
                elif action == "recover":
                    replica = all_replicas[event.replica]
                    if replica.crashed and replica.crashed_by is event:
                        recoveries += 1
                        crashed_now -= 1
                        replica.crashed = False
                        replica.crashed_by = None
                        assert replica.down_since is not None
                        replica.downtime_s += now - replica.down_since
                        replica.down_since = None
                        if replica.drained_s is None and not replica.draining:
                            serving.append(replica)
                            serving.sort(key=lambda r: r.replica_id)
                            if outage_start is not None:
                                unavailable_s += now - outage_start
                                outage_windows += 1
                                outage_start = None
                elif action == "slow_start":
                    all_replicas[event.replica].slow_factor *= event.factor
                    slow_active += 1
                elif action == "slow_end":
                    all_replicas[event.replica].slow_factor /= event.factor
                    slow_active -= 1
                elif action == "brownout_start":
                    brownout *= event.factor
                    brownout_active += 1
                else:  # brownout_end
                    brownout /= event.factor
                    brownout_active -= 1

            elif kind == _KIND_TIMEOUT:
                rid = payload  # type: ignore[assignment]
                if rid in class_of:
                    race = copies.get(rid)
                    started = False
                    if race:
                        for rep in race:
                            active = rep.active.get(rid)
                            if (
                                active is not None
                                and active.first_scheduled_s is not None
                            ):
                                started = True
                    if not started:
                        # Never entered service by the deadline: abandon
                        # every queued copy (an empty race means the
                        # request was waiting out a retry backoff).
                        if race:
                            for rep in race:
                                active = rep.active.pop(rid, None)
                                if active is not None:
                                    active.phase = RequestPhase.TIMED_OUT
                                if (
                                    rep.draining
                                    and not rep.active
                                    and not rep.busy
                                    and rep.drained_s is None
                                ):
                                    retire(rep, now)
                        elif race == []:
                            in_backoff -= 1
                        timed_out += 1
                        fail_request(rid)

            elif kind == _KIND_RETRY:
                rid, request = payload  # type: ignore[misc]
                if rid in class_of and copies.get(rid) == []:
                    in_backoff -= 1
                    if serving:
                        retries += 1
                        place(dispatch(request, serving, now), request, now)
                    else:
                        # Nothing to dispatch to: burn another attempt
                        # (bounded), or fail the request.
                        fail_over(rid, request, now)

            elif kind == _KIND_HEDGE:
                rid, request = payload  # type: ignore[misc]
                race = copies.get(rid)
                if rid in class_of and race is not None and len(race) == 1:
                    primary = race[0]
                    active = primary.active.get(rid)
                    if active is not None and active.first_scheduled_s is None:
                        pool = [r for r in serving if r is not primary]
                        if pool:
                            hedges += 1
                            place(
                                dispatch(request, pool, now),
                                request,
                                now,
                                hedged=True,
                            )

            elif kind >= _KIND_ARRIVAL:
                request = payload  # type: ignore[assignment]
                if kind == _KIND_ARRIVAL:
                    # Pull the next arrival first: a pick below must see
                    # whether another one is due at this instant.
                    push_next_arrival()
                else:
                    heapq.heappop(follow_up_times)
                arrived += 1
                required = request.prompt_tokens + request.output_tokens - 1
                if required > max_context:
                    raise ConfigurationError(
                        f"request {request.request_id} needs a context of "
                        f"{required} tokens, beyond the fleet's serving "
                        f"window ({max_context}); shorten the trace's "
                        "lengths or raise max_context"
                    )
                if resilient and not serving:
                    # Total outage: nothing to dispatch to, shed at the
                    # door (deterministic stand-in for conn-refused).
                    shed += 1
                    self.admission.shed(request)
                    continue
                if (
                    kept_classes is not None
                    and len(serving)
                    < fault_model.shed_below * static_count  # type: ignore[union-attr]
                    and self.admission.class_index(request) not in kept_classes
                ):
                    # Graceful degradation: healthy capacity is below
                    # the floor, shed every class but the protected ones.
                    shed += 1
                    self.admission.shed(request)
                    continue
                index = self.admission.class_index(request)
                ok, slo_class = self.admission.admit(request)
                if not ok:
                    rejected += 1
                else:
                    admitted += 1
                    if stamp and slo_class.priority != request.priority:
                        request = replace(request, priority=slo_class.priority)
                    if not serving:
                        raise SimulationError(
                            "no replica is in service to dispatch to "
                            f"(request {request.request_id} at {now:.3f}s)"
                        )
                    chosen_replica = dispatch(request, serving, now)
                    chosen_active = ActiveRequest(request=request)
                    class_of[request.request_id] = index
                    if resilient:
                        rid = request.request_id
                        timeout = slo_class.timeout_s
                        if timeout is None and retry is not None:
                            timeout = retry.timeout_s
                        if timeout is not None:
                            deadline = request.arrival_s + timeout
                            deadline_of[rid] = deadline
                            chosen_active.deadline_s = deadline
                            push(deadline, _KIND_TIMEOUT, rid)
                        copies[rid] = [chosen_replica]
                        if retry is not None and retry.hedge_after_s is not None:
                            push(
                                now + retry.hedge_after_s,
                                _KIND_HEDGE,
                                (rid, request),
                            )
                    chosen_replica.active.add(chosen_active)
                    if not chosen_replica.busy:
                        start_grant(chosen_replica, now)

            elif kind == _KIND_SCALE_TICK:
                assert self.autoscaler is not None
                depth = sum(len(r.active) for r in serving)
                per_replica = depth / len(serving) if serving else float(depth)
                decision = self.autoscaler.decide(
                    queue_depth_per_replica=per_replica,
                    window_completed=window_completed,
                    window_slo_met=window_slo_met,
                )
                window_completed = window_slo_met = 0
                if decision in ("queue-depth", "slo-attainment"):
                    assert self.scale_template is not None
                    replica = _Replica(
                        len(all_replicas),
                        self.scale_template,
                        "autoscaled",
                        now,
                        self.policy,
                    )
                    all_replicas.append(replica)
                    max_context = min(max_context, replica.costs.max_context)
                    serving.append(replica)
                    serving.sort(key=lambda r: r.replica_id)
                    scaled_stack.append(replica)
                    self.autoscaler.extras += 1
                    scaling_events.append(
                        ScaleEvent(
                            time_s=now,
                            action="add",
                            replica_id=replica.replica_id,
                            reason=decision,
                            replicas=len(serving),
                        )
                    )
                    if resilient and outage_start is not None:
                        unavailable_s += now - outage_start
                        outage_windows += 1
                        outage_start = None
                elif decision == "drained" and scaled_stack:
                    replica = scaled_stack.pop()
                    replica.draining = True
                    serving.remove(replica)
                    self.autoscaler.extras -= 1
                    scaling_events.append(
                        ScaleEvent(
                            time_s=now,
                            action="drain",
                            replica_id=replica.replica_id,
                            reason=decision,
                            replicas=len(serving),
                        )
                    )
                    if not replica.active:
                        retire(replica, now)
                if work_remains():
                    push(
                        now + self.autoscaler.config.check_interval_s,
                        _KIND_SCALE_TICK,
                        None,
                    )

            else:  # _KIND_WINDOW_TICK
                depth = sum(len(r.active) for r in all_replicas)
                busy = busy_bins.pop(window_index, 0.0)
                capacity = self.timeline_window_s * max(1, len(serving))
                timeline.append(
                    (now, depth, len(serving), min(1.0, busy / capacity))
                )
                window_index += 1
                if work_remains():
                    push(now + self.timeline_window_s, _KIND_WINDOW_TICK, None)

        if arrived == 0:
            raise AnalysisError("the trace generated no requests")

        resilience: Optional[ResilienceStats] = None
        if resilient:
            if outage_start is not None and makespan > outage_start:
                unavailable_s += makespan - outage_start
                outage_windows += 1
            downtime = 0.0
            for replica in all_replicas:
                downtime += replica.downtime_s
                if (
                    replica.down_since is not None
                    and makespan > replica.down_since
                ):
                    downtime += makespan - replica.down_since
            resilience = ResilienceStats(
                crashes=crashes,
                recoveries=recoveries,
                retries=retries,
                failed=failed,
                timed_out=timed_out,
                shed=shed,
                hedges=hedges,
                hedge_wins=hedge_wins,
                first_attempt_completed=first_attempt_completed,
                goodput_rps=(
                    first_attempt_completed / makespan if makespan > 0 else 0.0
                ),
                wasted_busy_s=wasted_busy_s,
                replica_downtime_s=downtime,
                unavailable_s=unavailable_s,
                unavailable_windows=outage_windows,
                healthy_completed=healthy_completed,
                degraded_completed=degraded_completed,
                slo_curve_healthy=tuple(
                    (
                        target,
                        slo_hits_healthy[position] / healthy_completed
                        if healthy_completed
                        else 0.0,
                    )
                    for position, target in enumerate(self.slo_targets)
                ),
                slo_curve_degraded=tuple(
                    (
                        target,
                        slo_hits_degraded[position] / degraded_completed
                        if degraded_completed
                        else 0.0,
                    )
                    for position, target in enumerate(self.slo_targets)
                ),
            )

        stats = tuple(
            ReplicaStats(
                replica_id=replica.replica_id,
                preset=replica.preset,
                chips=replica.chips,
                role=replica.role,
                source=replica.source,
                completed=replica.completed,
                busy_s=replica.busy_s,
                added_s=replica.added_s,
                drained_s=replica.drained_s,
                utilisation=_replica_utilisation(replica, makespan),
            )
            for replica in all_replicas
        )
        return FleetResult(
            router=self.router.name,
            policy=self.policy.name,
            arrived=arrived,
            admitted=admitted,
            rejected=rejected,
            completed=completed,
            in_flight=admitted - completed - failed - timed_out,
            makespan_s=makespan,
            generated_tokens=generated_tokens,
            prompt_tokens=prompt_tokens,
            total_energy_joules=total_energy,
            queue_wait=queue_wait.summary(),
            ttft=ttft.summary(),
            tpot=tpot.summary(),
            e2e=e2e.summary(),
            approximate=ttft.approximate,
            record_threshold=self.record_threshold,
            slo_curve=tuple(
                (target, slo_hits[position] / completed if completed else 0.0)
                for position, target in enumerate(self.slo_targets)
            ),
            classes=tuple(self.admission.to_dicts(include_shed=resilient)),
            replicas=stats,
            timeline=tuple(timeline),
            scaling_events=tuple(scaling_events),
            resilience=resilience,
        )


def serve_grant(
    policy: SchedulingPolicy,
    costs: RequestCostModel,
    chosen: ActiveRequest,
    now: float,
    decode_cache: List[Optional[Tuple[float, float]]],
) -> float:
    """Advance ``chosen`` by one service grant; returns its duration.

    A request that has not been prefilled gets its prefill pass; otherwise
    it decodes ``policy.decode_quantum`` steps (all remaining steps when
    the quantum is ``None``).  ``decode_cache``, the replica's table
    indexed by context length, memoises each decode step's
    ``(seconds, energy)``.
    """
    request = chosen.request
    if chosen.first_token_s is None:
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
    remaining = request.output_tokens - chosen.tokens_emitted
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
        pair = decode_cache[context]
        if pair is None:
            cost = costs.decode_cost(context)
            pair = decode_cache[context] = (cost.seconds, cost.energy_joules)
        seconds += pair[0]
        energy += pair[1]
    chosen.tokens_emitted += steps
    chosen.energy_joules += energy
    return seconds


def serve_source(
    costs: RequestCostModel,
    source: RequestSource,
    policy: "str | SchedulingPolicy" = "fifo",
) -> ServingResult:
    """Serve a request stream on one platform, as a one-replica fleet.

    ``costs`` needs ``prefill_cost``, ``decode_cost`` and ``max_context``.
    The fleet has no tenant classes, so every request is admitted with its
    own priority; a closed-loop source's follow-ups arrive as replies
    complete.  The result's metrics come from the records, so the fleet
    keeps no SLO curve.
    """
    records: List[RequestRecord] = []

    def on_complete(record: RequestRecord) -> Optional[Request]:
        records.append(record)
        return source.follow_up(record)

    simulator = FleetSimulator(
        # The replica's preset and chip count are labels only.
        [ReplicaTemplate(preset="serve", chips=0, role="any", costs=costs)],
        policy=policy,
        slo_targets=(),
    )
    fleet = simulator.run(source.initial, on_complete)
    return ServingResult(
        policy=simulator.policy.name,
        records=tuple(records),
        makespan_s=fleet.makespan_s,
        busy_s=fleet.replicas[0].busy_s,
    )


def _replica_utilisation(replica: _Replica, makespan_s: float) -> float:
    end = replica.drained_s if replica.drained_s is not None else makespan_s
    span = end - replica.added_s
    if span <= 0:
        return 0.0
    return min(1.0, replica.busy_s / span)
