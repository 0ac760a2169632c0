"""Streaming fleet analytics: bounded-memory aggregation and the report.

A fleet run can complete millions of requests, so — unlike the
single-platform serving metrics, which aggregate a list of per-request
records after the fact — the fleet engine streams every completion into
:class:`StreamingSummary` accumulators as it happens.  Up to a
configurable ``record_threshold`` the summaries keep the exact values
(percentiles match :func:`repro.serving.metrics.percentile` exactly);
above it they drop the value lists and answer percentiles from a fixed
log-spaced histogram (16 bins per decade, so an approximate percentile
is within ~15 % of the true value), while counts, means, maxima, and
SLO attainment stay exact at any scale.  Memory is therefore bounded by
the threshold plus the histogram, never by the trace length.
:class:`SLOCounter` keeps the attainment curves: one bisect per
completion, summed per target when the result is built.

:class:`FleetResult` is the aggregated outcome, and
:class:`FleetReport` adds provenance (model, strategy, router, seed) and
the deterministic JSON form behind ``repro fleet --json`` and the
``fleet`` study stages.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..serving.metrics import LatencySummary, _latency_line
from .autoscaler import ScaleEvent

__all__ = [
    "DEFAULT_RECORD_THRESHOLD",
    "FleetReport",
    "FleetResult",
    "ReplicaStats",
    "ResilienceStats",
    "SLOCounter",
    "StreamingSummary",
]

#: Completions beyond which summaries switch from exact values to the
#: histogram (the fleet engine's default ``record_threshold``).
DEFAULT_RECORD_THRESHOLD = 100_000

#: Histogram geometry: log-spaced bins over [1e-4 s, 1e4 s).
_HIST_LO = 1e-4
_HIST_BINS_PER_DECADE = 16
_HIST_DECADES = 8
_HIST_BINS = _HIST_BINS_PER_DECADE * _HIST_DECADES


class StreamingSummary:
    """One latency distribution, aggregated in bounded memory.

    Exact below ``threshold`` samples; histogram-approximated above it
    (mean and max stay exact either way).
    """

    __slots__ = ("count", "total", "max_value", "threshold", "_values", "_bins")

    def __init__(self, threshold: int = DEFAULT_RECORD_THRESHOLD) -> None:
        self.count = 0
        self.total = 0.0
        self.max_value = 0.0
        self.threshold = threshold
        self._values: Optional[List[float]] = []
        self._bins = [0] * (_HIST_BINS + 2)  # + underflow and overflow

    def add(self, value: float) -> None:
        """Stream one sample in."""
        self.count += 1
        self.total += value
        if value > self.max_value:
            self.max_value = value
        values = self._values
        if values is None:
            self._bin(value)
            return
        values.append(value)
        if self.count > self.threshold:
            # Exact mode ends; the histogram takes over from every sample.
            for sample in values:
                self._bin(sample)
            self._values = None

    def _bin(self, value: float) -> None:
        if value < _HIST_LO:
            index = 0
        else:
            offset = int(
                _HIST_BINS_PER_DECADE * math.log10(value / _HIST_LO)
            )
            index = 1 + min(offset, _HIST_BINS)
        self._bins[index] += 1

    @property
    def approximate(self) -> bool:
        """Whether percentiles now come from the histogram."""
        return self._values is None

    def _bin_quantile(self, q: float) -> float:
        rank = (self.count - 1) * (q / 100.0)
        cumulative = 0
        for index, bin_count in enumerate(self._bins):
            cumulative += bin_count
            if cumulative > rank:
                if index == 0:
                    return 0.0
                if index == _HIST_BINS + 1:
                    return self.max_value
                # Upper edge of the bin: conservative and deterministic.
                return min(
                    _HIST_LO * 10.0 ** (index / _HIST_BINS_PER_DECADE),
                    self.max_value,
                )
        return self.max_value

    def summary(self) -> LatencySummary:
        """The five-number summary (exact or histogram-approximated)."""
        if self.count == 0:
            return LatencySummary.zero()
        if self._values is not None:
            return LatencySummary.of(self._values)
        return LatencySummary(
            mean=self.total / self.count,
            p50=self._bin_quantile(50),
            p95=self._bin_quantile(95),
            p99=self._bin_quantile(99),
            max=self.max_value,
        )


class SLOCounter:
    """TTFT SLO attainment at fixed targets, exact at any scale.

    A sample is counted once, in the bucket of the smallest target it
    meets; a target's hits are the buckets up to its own.  The targets
    may come in any order and repeat; a NaN target is met by no sample.
    """

    __slots__ = ("targets", "_edges", "_buckets")

    def __init__(self, targets: Sequence[float]) -> None:
        self.targets = tuple(targets)
        self._edges = sorted({t for t in self.targets if t == t})
        # _buckets[i]: samples above every edge before i, within edge i
        # (the last bucket: above every edge).
        self._buckets = [0] * (len(self._edges) + 1)

    def add(self, ttft_s: float) -> None:
        """Count one completion's time to first token."""
        self._buckets[bisect_left(self._edges, ttft_s)] += 1

    @property
    def count(self) -> int:
        """Samples counted so far."""
        return sum(self._buckets)

    def curve(self) -> Tuple[Tuple[float, float], ...]:
        """``((target, fraction met), ...)`` in target order; 0.0 if empty."""
        count = self.count
        hits = dict(zip(self._edges, accumulate(self._buckets)))
        return tuple(
            (target, hits.get(target, 0) / count if count else 0.0)
            for target in self.targets
        )


@dataclass(frozen=True)
class ReplicaStats:
    """Per-replica accounting of one fleet run.

    Attributes:
        replica_id: Fleet-wide replica id.
        preset: Platform preset the replica ran.
        chips: Chip count of its platform.
        role: Routing-pool tag (``any``/``prefill``/``decode``).
        source: ``"static"`` (configured) or ``"autoscaled"``.
        completed: Requests this replica finished.
        busy_s: Virtual time the replica spent serving.
        added_s: When the replica entered service.
        drained_s: When it retired, ``None`` if in service at the end.
        utilisation: ``busy_s`` over the replica's in-service span.
    """

    replica_id: int
    preset: str
    chips: int
    role: str
    source: str
    completed: int
    busy_s: float
    added_s: float
    drained_s: Optional[float]
    utilisation: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "replica_id": self.replica_id,
            "preset": self.preset,
            "chips": self.chips,
            "role": self.role,
            "source": self.source,
            "completed": self.completed,
            "busy_s": self.busy_s,
            "added_s": self.added_s,
            "drained_s": self.drained_s,
            "utilisation": self.utilisation,
        }


@dataclass(frozen=True)
class ResilienceStats:
    """Fault-and-failover accounting of one fleet run.

    Only produced when a fault model or retry policy is configured — a
    fault-free run reports nothing here, keeping its output bit-identical
    to the fault-free engine.

    Attributes:
        crashes: Crash events that actually took a replica down.
        recoveries: Crashed replicas that re-entered service.
        retries: Re-dispatches of requests failed over from a crash.
        failed: Admitted requests lost to crashes after exhausting the
            retry budget (or with no retry policy configured).
        timed_out: Admitted requests abandoned because they never
            entered service by their (class) deadline.
        shed: Arrivals turned away by graceful degradation — either the
            fleet was in total outage, or healthy capacity dropped below
            the fault model's ``shed_below`` and the request's SLO class
            was not among the ``shed_keep`` protected classes.
        hedges: Hedged second dispatches issued.
        hedge_wins: Hedged copies that entered service before the
            primary copy (the primary was cancelled).
        first_attempt_completed: Completions that never failed over —
            the numerator of goodput.
        goodput_rps: First-attempt completions per virtual second, to
            compare against ``throughput_rps`` (which counts retried
            completions too).
        wasted_busy_s: Replica-seconds of service lost to crashes
            (partial grants whose work was discarded).
        replica_downtime_s: Summed crashed time across replicas.
        unavailable_s: Virtual time with zero replicas in service.
        unavailable_windows: How many distinct total-outage windows the
            run saw.
        healthy_completed / degraded_completed: Completions split by
            whether any fault was active when they finished.
        slo_curve_healthy / slo_curve_degraded: TTFT attainment at the
            fleet SLO targets, split the same way.
    """

    crashes: int = 0
    recoveries: int = 0
    retries: int = 0
    failed: int = 0
    timed_out: int = 0
    shed: int = 0
    hedges: int = 0
    hedge_wins: int = 0
    first_attempt_completed: int = 0
    goodput_rps: float = 0.0
    wasted_busy_s: float = 0.0
    replica_downtime_s: float = 0.0
    unavailable_s: float = 0.0
    unavailable_windows: int = 0
    healthy_completed: int = 0
    degraded_completed: int = 0
    slo_curve_healthy: Tuple[Tuple[float, float], ...] = ()
    slo_curve_degraded: Tuple[Tuple[float, float], ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "crashes": self.crashes,
            "recoveries": self.recoveries,
            "retries": self.retries,
            "failed": self.failed,
            "timed_out": self.timed_out,
            "shed": self.shed,
            "hedges": self.hedges,
            "hedge_wins": self.hedge_wins,
            "first_attempt_completed": self.first_attempt_completed,
            "goodput_rps": self.goodput_rps,
            "wasted_busy_s": self.wasted_busy_s,
            "replica_downtime_s": self.replica_downtime_s,
            "unavailable_s": self.unavailable_s,
            "unavailable_windows": self.unavailable_windows,
            "healthy_completed": self.healthy_completed,
            "degraded_completed": self.degraded_completed,
            "slo_curve_healthy": [
                {"ttft_target_s": target, "attainment": fraction}
                for target, fraction in self.slo_curve_healthy
            ],
            "slo_curve_degraded": [
                {"ttft_target_s": target, "attainment": fraction}
                for target, fraction in self.slo_curve_degraded
            ],
        }


@dataclass(frozen=True)
class FleetResult:
    """Aggregated outcome of one fleet simulation.

    Attributes:
        router: Canonical name of the routing policy that dispatched.
        policy: Per-replica scheduling policy name.
        arrived: Requests the trace generated.
        admitted: Requests admission control let through.
        rejected: Requests admission control turned away.
        completed: Requests that finished.
        in_flight: Admitted requests still unfinished at the horizon
            (zero: the engine drains every admitted request).
        makespan_s: Virtual time of the last completion.
        generated_tokens: Output tokens across completed requests.
        prompt_tokens: Prompt tokens across completed requests.
        total_energy_joules: Energy across completed requests.
        queue_wait / ttft / tpot / e2e: Latency summaries.
        approximate: Whether the percentile summaries came from the
            streaming histogram (completions exceeded the threshold).
        record_threshold: The exact/streaming switch-over used.
        slo_curve: Exact TTFT attainment at each target.
        classes: Per-SLO-class admission and attainment rows.
        replicas: Per-replica accounting, id order.
        timeline: ``(window_end_s, queue_depth, replicas, utilisation)``
            per aggregation window.
        scaling_events: The autoscaler's action timeline.
        resilience: Fault-and-failover accounting; ``None`` for a
            fault-free run (its serialised form then carries no
            resilience key, keeping fault-free output bit-identical to
            the fault-free engine).
    """

    router: str
    policy: str
    arrived: int
    admitted: int
    rejected: int
    completed: int
    in_flight: int
    makespan_s: float
    generated_tokens: int
    prompt_tokens: int
    total_energy_joules: float
    queue_wait: LatencySummary
    ttft: LatencySummary
    tpot: LatencySummary
    e2e: LatencySummary
    approximate: bool
    record_threshold: int
    slo_curve: Tuple[Tuple[float, float], ...]
    classes: Tuple[Dict[str, Any], ...]
    replicas: Tuple[ReplicaStats, ...]
    timeline: Tuple[Tuple[float, int, int, float], ...]
    scaling_events: Tuple[ScaleEvent, ...]
    resilience: Optional[ResilienceStats] = None

    @property
    def throughput_rps(self) -> float:
        """Completed requests per virtual second."""
        if self.makespan_s <= 0:
            return 0.0
        return self.completed / self.makespan_s

    @property
    def throughput_tps(self) -> float:
        """Generated (output) tokens per virtual second."""
        if self.makespan_s <= 0:
            return 0.0
        return self.generated_tokens / self.makespan_s

    @property
    def utilisation(self) -> float:
        """Fleet busy time over the summed in-service replica spans."""
        span = 0.0
        busy = 0.0
        for replica in self.replicas:
            end = (
                replica.drained_s
                if replica.drained_s is not None
                else self.makespan_s
            )
            span += max(0.0, end - replica.added_s)
            busy += replica.busy_s
        if span <= 0:
            return 0.0
        return busy / span

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (nested under the report document).

        The ``resilience`` key appears only when fault injection or a
        retry policy was configured: a fault-free run's document is
        byte-identical to one from the fault-free engine.
        """
        data: Dict[str, Any] = {
            "requests": {
                "arrived": self.arrived,
                "admitted": self.admitted,
                "rejected": self.rejected,
                "completed": self.completed,
                "in_flight": self.in_flight,
            },
            "makespan_s": self.makespan_s,
            "throughput_rps": self.throughput_rps,
            "throughput_tps": self.throughput_tps,
            "generated_tokens": self.generated_tokens,
            "prompt_tokens": self.prompt_tokens,
            "total_energy_joules": self.total_energy_joules,
            "queue_wait_s": self.queue_wait.to_dict(),
            "ttft_s": self.ttft.to_dict(),
            "tpot_s": self.tpot.to_dict(),
            "e2e_s": self.e2e.to_dict(),
            "utilisation": self.utilisation,
            "approximate_percentiles": self.approximate,
            "record_threshold": self.record_threshold,
            "slo_curve": [
                {"ttft_target_s": target, "attainment": fraction}
                for target, fraction in self.slo_curve
            ],
            "classes": list(self.classes),
            "replicas": [replica.to_dict() for replica in self.replicas],
            "autoscaler_events": [
                event.to_dict() for event in self.scaling_events
            ],
            "timeline": [
                {
                    "window_end_s": end,
                    "queue_depth": depth,
                    "replicas": replicas,
                    "utilisation": utilisation,
                }
                for end, depth, replicas, utilisation in self.timeline
            ],
        }
        if self.resilience is not None:
            data["resilience"] = self.resilience.to_dict()
        return data


@dataclass(frozen=True)
class FleetReport:
    """A fleet simulation plus its provenance — the ``fleet`` deliverable.

    Attributes:
        model: Name of the served model configuration.
        strategy: Partitioning strategy behind the phase costs.
        router: Routing policy that dispatched.
        policy: Per-replica scheduling policy.
        seed: Trace seed.
        result: The aggregated outcome.
    """

    model: str
    strategy: str
    router: str
    policy: str
    seed: int
    result: FleetResult

    def to_dict(self, *, cache=None) -> Dict[str, Any]:
        """JSON-serialisable form (the ``repro fleet --json`` document).

        Pass the evaluating session's
        :meth:`~repro.api.Session.cache_info` as ``cache`` to make the
        phase-cost memoisation reuse observable in the output.
        """
        document: Dict[str, Any] = {
            "model": self.model,
            "strategy": self.strategy,
            "router": self.router,
            "policy": self.policy,
            "seed": self.seed,
            "metrics": self.result.to_dict(),
        }
        if cache is not None:
            document["cache"] = cache.to_dict()
        return document

    def to_json(self, *, cache=None) -> str:
        """Deterministic JSON document (sorted keys, stable float reprs)."""
        return json.dumps(self.to_dict(cache=cache), indent=2, sort_keys=True)

    def render(self) -> str:
        """Plain-text summary of the headline fleet numbers."""
        result = self.result
        static = sum(1 for r in result.replicas if r.source == "static")
        scaled = len(result.replicas) - static
        lines: List[str] = [
            (
                f"Fleet served {result.completed} requests of {self.model} "
                f"on {len(result.replicas)} replica(s) "
                f"[router={self.router}, policy={self.policy}, "
                f"strategy={self.strategy}, seed={self.seed}]"
            ),
            (
                f"  requests    : {result.arrived} arrived, "
                f"{result.admitted} admitted, {result.rejected} rejected, "
                f"{result.in_flight} in flight"
            ),
            (
                f"  makespan    : {result.makespan_s:.2f} s  "
                f"(utilisation {result.utilisation * 100:.1f}%)"
            ),
            (
                f"  throughput  : {result.throughput_rps:.3f} req/s, "
                f"{result.throughput_tps:.2f} tok/s"
            ),
            _latency_line("queue wait", result.queue_wait),
            _latency_line("TTFT", result.ttft),
            _latency_line("TPOT", result.tpot),
            _latency_line("e2e", result.e2e),
            (
                f"  replicas    : {static} static + {scaled} autoscaled, "
                f"{len(result.scaling_events)} scaling event(s)"
            ),
            "  SLO (TTFT)  : "
            + ", ".join(
                f"<{target:g}s: {fraction * 100:.1f}%"
                for target, fraction in result.slo_curve
            ),
        ]
        resilience = result.resilience
        if resilience is not None:
            lines.append(
                f"  resilience  : {resilience.crashes} crash(es), "
                f"{resilience.retries} retried, {resilience.failed} failed, "
                f"{resilience.timed_out} timed out, {resilience.shed} shed, "
                f"{resilience.hedges} hedged ({resilience.hedge_wins} won)"
            )
            lines.append(
                f"  goodput     : {resilience.goodput_rps:.3f} req/s "
                f"first-attempt (vs {result.throughput_rps:.3f} req/s "
                f"throughput), {resilience.wasted_busy_s:.2f} s wasted"
            )
            lines.append(
                f"  availability: {resilience.replica_downtime_s:.1f} "
                f"replica-s down, {resilience.unavailable_s:.1f} s total "
                f"outage over {resilience.unavailable_windows} window(s)"
            )
        if result.approximate:
            lines.append(
                "  note        : percentiles are histogram approximations "
                f"(completions exceeded {result.record_threshold})"
            )
        return "\n".join(lines)

