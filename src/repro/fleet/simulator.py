"""The serving engine: a discrete-event simulator over platform replicas.

Every platform replica is a *subsimulator* (its own admitted-request
set, scheduling policy, and non-preemptive service grants,
:func:`serve_grant`, with phase costs from a Session-memoised
:class:`~repro.serving.costs.RequestCostModel`).  One fleet-level event
heap advances all of them together: :meth:`FleetSimulator.run` pops each
event and hands it, by kind, to a small handler of the run's state
(:class:`_FleetRun`) — grant end, arrival (stream arrivals, pulled lazily
from an iterator so a day-long million-request trace never materialises
in memory, and closed-loop follow-ups), autoscaler tick and timeline
window tick.  Ties break on a deterministic sequence number, which
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

Faults and failover live in one component,
:class:`~repro.fleet.faults.Resilience`: fault transitions, timeout,
retry and hedge timers, the hedge race, shedding and outage accounting.
A run builds it only when the simulator has a fault model or a retry
policy, so a fault-free run never constructs or calls it.
"""

from __future__ import annotations

import copy
import heapq
import itertools
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import AnalysisError, ConfigurationError, SimulationError
from ..hw.presets import get_platform_preset
from ..serving.costs import RequestCostModel
from ..serving.metrics import DEFAULT_SLO_TTFT_TARGETS_S, ServingResult
from ..serving.policies import ReadyQueue, SchedulingPolicy, get_policy
from ..serving.request import ActiveRequest, Request, RequestPhase, RequestRecord
from ..serving.traces import RequestSource, TrafficTrace
from ..spec.base import SpecBase, _check_name, register, spec_error
from .admission import AdmissionController
from .autoscaler import Autoscaler, AutoscalerConfig, ScaleEvent
from .faults import FaultModel, Resilience, RetryPolicy
from .metrics import (
    DEFAULT_RECORD_THRESHOLD,
    FleetResult,
    ReplicaStats,
    ResilienceStats,
    SLOCounter,
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

#: Aggregation window of the fleet timeline, in virtual seconds.
TIMELINE_WINDOW_S = 60.0

#: Event kinds, in their order at equal timestamps: completions first,
#: then the resilience component's fault transitions and failover timers
#: (kinds 1-4, :mod:`repro.fleet.faults`), then scaling and timeline
#: ticks, then new arrivals, the stream's before closed-loop follow-ups.
_KIND_GRANT_END = 0
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
        _check_name(get_platform_preset, self.preset, f"{path}.preset")


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
        "replica_id", "preset", "chips", "role", "source", "costs", "active",
        "busy", "busy_s", "added_s", "drained_s", "draining", "completed",
        "decode_cache", "crashed",
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
        self.crashed = False  # only the resilience component sets it

    @property
    def queue_depth(self) -> int:
        return len(self.active)

    def stats(self, makespan_s: float) -> ReplicaStats:
        end = self.drained_s if self.drained_s is not None else makespan_s
        span = end - self.added_s
        return ReplicaStats(
            replica_id=self.replica_id, preset=self.preset, chips=self.chips,
            role=self.role, source=self.source, completed=self.completed,
            busy_s=self.busy_s, added_s=self.added_s, drained_s=self.drained_s,
            utilisation=min(1.0, self.busy_s / span) if span > 0 else 0.0,
        )


class FleetSimulator:
    """Serves one arrival stream across N platform replicas.

    Args:
        replicas: Static replica recipes (at least one).
        router: Registered router name or a
            :class:`~repro.fleet.routers.RoutingPolicy` instance.  Each
            run routes through its own router: a new one from the
            registry for a name, else a copy of the instance.
        policy: Per-replica scheduling policy name (or instance).
        admission: Admission controller; a default-constructed one
            (a single unlimited class that keeps every request's own
            priority) when ``None``.  Each run starts from a fresh copy
            of its classes (:meth:`AdmissionController.fresh`).
        autoscaler: Reactive-scaling knobs; scaling is off when ``None``.
            Each run starts with no extra replicas.
        scale_template: Replica recipe the autoscaler adds from
            (required when ``autoscaler`` is given).
        slo_targets: TTFT targets of the exact attainment curve.
        record_threshold: Completions beyond which latency percentiles
            switch to the streaming histogram.
        faults: Fault schedule to inject (crashes, stragglers,
            brownouts, graceful degradation); with neither ``faults``
            nor ``retry`` the run never builds the resilience component.
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
        faults: Optional[FaultModel] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        if not replicas:
            raise ConfigurationError("a fleet needs at least one replica")
        if record_threshold < 1:
            raise ConfigurationError("record_threshold must be at least 1")
        if autoscaler is not None and scale_template is None:
            raise ConfigurationError(
                "an autoscaled fleet needs a scale_template to build "
                "replicas from"
            )
        if faults is not None:
            faults.validate_replicas(len(replicas))
        self.router = get_router(router) if isinstance(router, str) else router
        self._router_name = router if isinstance(router, str) else None
        self.policy = get_policy(policy) if isinstance(policy, str) else policy
        self.admission = admission if admission is not None else AdmissionController()
        self.autoscaler = autoscaler
        self.scale_template = scale_template
        self.slo_targets = tuple(slo_targets)
        self.record_threshold = record_threshold
        self.faults = faults
        self.retry = retry
        self._templates = tuple(replicas)

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
        fleet = _FleetRun(self, requests, on_complete)
        handlers = fleet.handlers()
        events = fleet.events
        deferred = fleet.deferred
        now = 0.0
        while events or deferred:
            if deferred and not fleet.arrival_due(now):
                fleet.pick_deferred(now)
                continue
            now, kind, _, payload = heapq.heappop(events)
            handlers[kind](now, payload)
        return fleet.result()


class _FleetRun:
    """The state of one :meth:`FleetSimulator.run`.

    Each ``on_*`` method handles one event kind, given ``(now, payload)``;
    the fault and failover kinds go to the resilience component.
    """

    __slots__ = (
        "router", "policy", "admission", "autoscaler", "scale_template",
        "on_complete", "stamp", "autoscale_slo", "all_replicas", "serving",
        "scaled_stack", "max_context", "events", "seq", "arrivals",
        "next_arrival_s", "follow_up_times", "deferred", "queue_wait", "ttft",
        "tpot", "e2e", "slo", "class_of", "arrived", "admitted", "rejected",
        "completed", "generated_tokens", "prompt_tokens", "total_energy",
        "makespan", "window_completed", "window_slo_met", "busy_bins",
        "timeline", "window_index", "scaling_events", "resilience",
    )

    def __init__(
        self,
        simulator: FleetSimulator,
        requests: Iterable[Request],
        on_complete: Optional[Callable[[RequestRecord], Optional[Request]]],
    ) -> None:
        # Routers keep per-run state (cursors, pins): each run starts its
        # own, a new one by name or else a copy of the instance as passed.
        name = simulator._router_name
        self.router = get_router(name) if name else copy.deepcopy(simulator.router)
        self.policy = simulator.policy
        # Token buckets, class counters and outstanding extras are per run.
        self.admission = simulator.admission.fresh()
        self.autoscaler = (
            Autoscaler(simulator.autoscaler) if simulator.autoscaler is not None else None
        )
        self.scale_template = simulator.scale_template
        self.on_complete = on_complete
        self.stamp = self.admission.stamps_priority
        self.autoscale_slo = (
            self.autoscaler.config.ttft_slo_s if self.autoscaler is not None else None
        )
        self.all_replicas = [
            _Replica(index, template, "static", 0.0, self.policy)
            for index, template in enumerate(simulator._templates)
        ]
        self.serving = list(self.all_replicas)
        self.scaled_stack: List[_Replica] = []  # autoscaled, most recent last
        # The fleet's serving window; only a joining replica can shrink it.
        self.max_context = min(r.costs.max_context for r in self.all_replicas)

        self.events: List[Tuple[float, int, int, Any]] = []
        self.seq = itertools.count()
        self.arrivals = iter(requests)
        # Arrival times in the heap: the one stream arrival pulled ahead
        # (None once the stream is drained) and every pending follow-up.
        self.next_arrival_s: Optional[float] = 0.0
        self.follow_up_times: List[float] = []
        # Replicas whose pick waits for the arrivals due at this instant.
        self.deferred: List[_Replica] = []

        threshold = simulator.record_threshold
        self.queue_wait = StreamingSummary(threshold)
        self.ttft = StreamingSummary(threshold)
        self.tpot = StreamingSummary(threshold)
        self.e2e = StreamingSummary(threshold)
        self.slo = SLOCounter(simulator.slo_targets)
        self.class_of: Dict[int, int] = {}  # request_id -> class index
        self.arrived = self.admitted = self.rejected = self.completed = 0
        self.generated_tokens = self.prompt_tokens = 0
        self.total_energy = 0.0
        self.makespan = 0.0
        self.window_completed = self.window_slo_met = 0  # autoscaler window
        self.busy_bins: Dict[int, float] = {}
        self.timeline: List[Tuple[float, int, int, float]] = []
        self.window_index = 0
        self.scaling_events: List[ScaleEvent] = []

        self.pull_arrival()
        if self.autoscaler is not None:
            self.push(self.autoscaler.config.check_interval_s, _KIND_SCALE_TICK, None)
        self.push(TIMELINE_WINDOW_S, _KIND_WINDOW_TICK, None)
        # Built after the ticks: its fault events take the next sequence numbers.
        self.resilience: Optional[Resilience] = None
        if simulator.faults is not None or simulator.retry is not None:
            self.resilience = Resilience(self, simulator.faults, simulator.retry)

    def handlers(self) -> Dict[int, Callable[[float, Any], None]]:
        """The handler of each event kind."""
        table = {
            _KIND_GRANT_END: self.on_grant_end,
            _KIND_SCALE_TICK: self.on_scale_tick,
            _KIND_WINDOW_TICK: self.on_window_tick,
            _KIND_ARRIVAL: self.on_arrival,
            _KIND_FOLLOW_UP: self.on_arrival,
        }
        if self.resilience is not None:
            table.update(self.resilience.handlers())
        return table

    def on_grant_end(self, now: float, payload: Tuple[_Replica, ActiveRequest]) -> None:
        replica, chosen = payload
        if chosen.phase is RequestPhase.FAILED:
            return  # the grant was aborted by a crash
        replica.busy = False
        if chosen.tokens_emitted >= chosen.request.output_tokens:
            self.complete(replica, chosen, now)
        else:
            replica.active.requeue(chosen)
        if replica.active:
            self.start_grant(replica, now)
        elif replica.draining:
            self.retire_if_idle(replica, now)

    def on_arrival(self, now: float, request: Request) -> None:
        """A stream arrival or a closed-loop follow-up reaches the fleet."""
        if now == self.next_arrival_s:
            # The stream's pending arrival sorts before every follow-up of
            # its instant.  Pull the next one first: a pick below must see
            # whether another one is due at this instant.
            self.pull_arrival()
        else:
            heapq.heappop(self.follow_up_times)
        self.arrived += 1
        required = request.prompt_tokens + request.output_tokens - 1
        if required > self.max_context:
            raise ConfigurationError(
                f"request {request.request_id} needs a context of {required} tokens, "
                f"beyond the fleet's serving window ({self.max_context}); shorten "
                "the trace's lengths or raise max_context"
            )
        if request.request_id in self.class_of:
            raise SimulationError(
                f"duplicate request id {request.request_id}: a request with "
                "this id is still in flight in the fleet"
            )
        resilience = self.resilience
        if resilience is not None and resilience.sheds(request):
            return
        index = self.admission.class_index(request)
        ok, slo_class = self.admission.admit(request, index)
        if not ok:
            self.rejected += 1
            return
        self.admitted += 1
        if self.stamp and slo_class.priority != request.priority:
            request = replace(request, priority=slo_class.priority)
        replica = self.dispatch(request, self.serving, now)
        self.class_of[request.request_id] = index
        if resilience is not None:
            resilience.admit(request, slo_class)
        self.place(replica, request, now)

    def on_scale_tick(self, now: float, _: None) -> None:
        autoscaler = self.autoscaler
        assert autoscaler is not None
        serving = self.serving
        depth = sum(len(r.active) for r in serving)
        decision = autoscaler.decide(
            queue_depth_per_replica=depth / len(serving) if serving else float(depth),
            window_completed=self.window_completed,
            window_slo_met=self.window_slo_met,
        )
        self.window_completed = self.window_slo_met = 0
        if decision in ("queue-depth", "slo-attainment"):
            assert self.scale_template is not None
            replica = _Replica(
                len(self.all_replicas), self.scale_template, "autoscaled", now, self.policy
            )
            self.all_replicas.append(replica)
            self.max_context = min(self.max_context, replica.costs.max_context)
            self.restore(replica, now)
            self.scaled_stack.append(replica)
            autoscaler.extras += 1
            self.scale_event(now, "add", replica, decision)
        elif decision == "drained" and self.scaled_stack:
            replica = self.scaled_stack.pop()
            replica.draining = True
            serving.remove(replica)
            autoscaler.extras -= 1
            self.scale_event(now, "drain", replica, decision)
            self.retire_if_idle(replica, now)
        if self.work_remains():
            self.push(now + autoscaler.config.check_interval_s, _KIND_SCALE_TICK, None)

    def on_window_tick(self, now: float, _: None) -> None:
        depth = sum(len(r.active) for r in self.all_replicas)
        busy = self.busy_bins.pop(self.window_index, 0.0)
        serving = len(self.serving)
        capacity = TIMELINE_WINDOW_S * max(1, serving)
        self.timeline.append((now, depth, serving, min(1.0, busy / capacity)))
        self.window_index += 1
        if self.work_remains():
            self.push(now + TIMELINE_WINDOW_S, _KIND_WINDOW_TICK, None)

    def push(self, time_s: float, kind: int, payload: Any) -> None:
        heapq.heappush(self.events, (time_s, kind, next(self.seq), payload))

    def pull_arrival(self) -> None:
        """Queue the stream's next arrival (the heap holds one at a time)."""
        request = next(self.arrivals, None)
        if request is None:
            self.next_arrival_s = None
            return
        if request.arrival_s < self.next_arrival_s:  # type: ignore[operator]
            raise SimulationError(
                "trace arrivals are not in time order "
                f"(request {request.request_id} at {request.arrival_s})"
            )
        self.next_arrival_s = request.arrival_s
        self.push(request.arrival_s, _KIND_ARRIVAL, request)

    def arrival_due(self, now: float) -> bool:
        """Whether a stream arrival or a follow-up is due at ``now``."""
        return self.next_arrival_s == now or bool(
            self.follow_up_times and self.follow_up_times[0] == now
        )

    def pick_deferred(self, now: float) -> None:
        """Every arrival of this instant is queued: the waiting replicas pick."""
        for replica in self.deferred:
            replica.busy = False
            if replica.active:
                self.start_grant(replica, now)
            else:
                self.retire_if_idle(replica, now)
        self.deferred.clear()

    def work_remains(self) -> bool:
        return (
            self.next_arrival_s is not None
            or bool(self.follow_up_times)
            or (self.resilience is not None and self.resilience.in_backoff > 0)
            or any(r.active for r in self.all_replicas)
        )

    def add_busy(self, start_s: float, end_s: float, sign: float = 1.0) -> None:
        """Fold ``[start_s, end_s)`` of service into the timeline's bins."""
        index = int(start_s / TIMELINE_WINDOW_S)
        cursor = start_s
        while cursor < end_s:
            edge = (index + 1) * TIMELINE_WINDOW_S
            span = min(end_s, edge) - cursor
            self.busy_bins[index] = self.busy_bins.get(index, 0.0) + span * sign
            cursor = edge
            index += 1

    def dispatch(self, request: Request, pool: List[_Replica], now: float) -> _Replica:
        """The replica of ``pool`` the router picks for ``request``."""
        chosen = self.router.route(request, pool, now)
        for replica in pool:
            if replica is chosen and not replica.draining:
                break
        else:
            raise SimulationError(
                f"router {self.router.name!r} dispatched request "
                f"{request.request_id} to a drained or unknown replica"
            )
        if request.request_id in chosen.active:
            raise SimulationError(
                f"duplicate request id {request.request_id} "
                f"admitted on replica {chosen.replica_id}"
            )
        return chosen

    def place(
        self, replica: _Replica, request: Request, now: float, hedged: bool = False
    ) -> None:
        """Queue one copy of ``request`` (new, retried or hedged) on a replica."""
        if self.resilience is None:
            active = ActiveRequest(request=request)
        else:
            active = self.resilience.copy(replica, request, now, hedged)
        replica.active.add(active)
        if not replica.busy:
            self.start_grant(replica, now)

    def start_grant(self, replica: _Replica, now: float) -> None:
        follow_ups = self.follow_up_times
        if self.next_arrival_s == now or (follow_ups and follow_ups[0] == now):
            # arrival_due(now), inline: the pick waits for this instant's arrivals.
            replica.busy = True  # as if it had picked: no second pick
            self.deferred.append(replica)
            return
        chosen = replica.active.select(now)
        duration = serve_grant(self.policy, replica.costs, chosen, now, replica.decode_cache)
        if self.resilience is not None:
            duration = self.resilience.grant_started(replica, chosen, duration, now)
        end = now + duration
        replica.busy = True
        replica.busy_s += duration
        window = int(now / TIMELINE_WINDOW_S)
        if end <= (window + 1) * TIMELINE_WINDOW_S:  # add_busy's one-window case
            bins = self.busy_bins
            bins[window] = bins.get(window, 0.0) + (end - now)
        else:
            self.add_busy(now, end)
        self.push(end, _KIND_GRANT_END, (replica, chosen))

    def complete(self, replica: _Replica, chosen: ActiveRequest, now: float) -> None:
        """Fold a finished request into the metrics; queue its follow-up."""
        request = chosen.request
        rid = request.request_id
        chosen.phase = RequestPhase.DONE
        del replica.active[rid]
        index = self.class_of.pop(rid)
        ttft_s = chosen.first_token_s - request.arrival_s
        self.queue_wait.add(chosen.first_scheduled_s - request.arrival_s)
        self.ttft.add(ttft_s)
        self.e2e.add(now - request.arrival_s)
        if request.output_tokens > 1:
            self.tpot.add((now - chosen.first_token_s) / (request.output_tokens - 1))
        self.slo.add(ttft_s)
        self.admission.complete(index, ttft_s)
        self.completed += 1
        replica.completed += 1
        self.generated_tokens += request.output_tokens
        self.prompt_tokens += request.prompt_tokens
        self.total_energy += chosen.energy_joules
        self.makespan = now
        self.window_completed += 1
        if self.autoscale_slo is not None and ttft_s <= self.autoscale_slo:
            self.window_slo_met += 1
        if self.resilience is not None:
            self.resilience.complete(rid, ttft_s)
        if self.on_complete is not None:
            follow_up = self.on_complete(chosen.finish(now))
            if follow_up is not None:
                if follow_up.arrival_s < now:
                    raise SimulationError(
                        "closed-loop follow-up arrives before the reply it reacts to"
                    )
                heapq.heappush(self.follow_up_times, follow_up.arrival_s)
                self.push(follow_up.arrival_s, _KIND_FOLLOW_UP, follow_up)

    def restore(self, replica: _Replica, now: float) -> None:
        """Return a replica to the dispatch set (a recovery or an add)."""
        self.serving.append(replica)
        self.serving.sort(key=lambda r: r.replica_id)
        if self.resilience is not None:
            self.resilience.outage_ends(now)

    def retire_if_idle(self, replica: _Replica, now: float) -> None:
        """Retire a draining replica once it is idle with an empty queue."""
        idle = not replica.active and not replica.busy
        if replica.draining and idle and replica.drained_s is None:
            replica.drained_s = now  # the drain took it out of `serving`
            self.scale_event(now, "retire", replica, "queue-empty")
            if self.resilience is not None and not self.serving:
                self.resilience.outage_begins(now)

    def scale_event(self, now: float, action: str, replica: _Replica, reason: str) -> None:
        self.scaling_events.append(
            ScaleEvent(now, action, replica.replica_id, reason, len(self.serving))
        )

    def result(self) -> FleetResult:
        if self.arrived == 0:
            raise AnalysisError("the trace generated no requests")
        makespan = self.makespan
        completed = self.completed
        lost = 0  # admitted requests that failed or timed out
        stats: Optional[ResilienceStats] = None
        if self.resilience is not None:
            stats = self.resilience.stats(makespan)
            lost = stats.failed + stats.timed_out
        return FleetResult(
            router=self.router.name,
            policy=self.policy.name,
            arrived=self.arrived,
            admitted=self.admitted,
            rejected=self.rejected,
            completed=completed,
            in_flight=self.admitted - completed - lost,
            makespan_s=makespan,
            generated_tokens=self.generated_tokens,
            prompt_tokens=self.prompt_tokens,
            total_energy_joules=self.total_energy,
            queue_wait=self.queue_wait.summary(),
            ttft=self.ttft.summary(),
            tpot=self.tpot.summary(),
            e2e=self.e2e.summary(),
            approximate=self.ttft.approximate,
            record_threshold=self.queue_wait.threshold,
            slo_curve=self.slo.curve(),
            classes=tuple(self.admission.to_dicts(include_shed=stats is not None)),
            replicas=tuple(replica.stats(makespan) for replica in self.all_replicas),
            timeline=tuple(self.timeline),
            scaling_events=tuple(self.scaling_events),
            resilience=stats,
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
