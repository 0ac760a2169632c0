"""Tail-latency, throughput, and SLO analytics of serving simulations.

Aggregates a raw :class:`ServingResult` into the numbers a capacity
planner cares about: TTFT/TPOT/end-to-end latency percentiles, request
and token throughput, engine utilisation, time-weighted queue depth,
energy per request, and SLO-attainment curves.  The aggregate plus its
provenance (model, platform, policy, seed) is the :class:`ServingReport`,
whose :meth:`~ServingReport.to_json` form is the machine-readable output
of ``repro serve --json`` — deterministic down to the byte for equal
seeds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import AnalysisError
from .request import RequestRecord

__all__ = [
    "DEFAULT_SLO_TTFT_TARGETS_S",
    "LatencySummary",
    "ServingMetrics",
    "ServingReport",
    "ServingResult",
    "attainment_curve",
    "percentile",
    "slo_attainment",
]

#: Default TTFT targets (seconds) of the SLO-attainment curve.
DEFAULT_SLO_TTFT_TARGETS_S: Tuple[float, ...] = (0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation.

    Matches numpy's default (``linear``) method; implemented locally so the
    serving analytics carry no array dependency.
    """
    if not values:
        raise AnalysisError("cannot take a percentile of no values")
    if not 0.0 <= q <= 100.0:
        raise AnalysisError(f"percentile {q} outside [0, 100]")
    return _ranked(sorted(values), q)


def _ranked(ordered: Sequence[float], q: float) -> float:
    """:func:`percentile` of values already in ascending order."""
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * (q / 100.0)
    lower = int(rank)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = rank - lower
    return ordered[lower] * (1.0 - fraction) + ordered[upper] * fraction


@dataclass(frozen=True)
class LatencySummary:
    """Five-number summary of one latency distribution (seconds)."""

    mean: float
    p50: float
    p95: float
    p99: float
    max: float

    @classmethod
    def of(cls, values: Sequence[float]) -> "LatencySummary":
        """Summarise a non-empty value sequence.

        The mean adds left to right (``sum`` compensates from Python
        3.12 on), so every interpreter prints the same bytes.
        """
        ordered = sorted(values)
        return cls(
            mean=reduce(add, values, 0) / len(values),
            p50=_ranked(ordered, 50),
            p95=_ranked(ordered, 95),
            p99=_ranked(ordered, 99),
            max=max(values),
        )

    @classmethod
    def zero(cls) -> "LatencySummary":
        """The all-zero summary (used when a distribution is empty)."""
        return cls(mean=0.0, p50=0.0, p95=0.0, p99=0.0, max=0.0)

    def to_dict(self) -> Dict[str, float]:
        return {
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "max": self.max,
        }


# ----------------------------------------------------------------------
# SLOs
# ----------------------------------------------------------------------
def slo_attainment(
    records: Sequence[RequestRecord],
    *,
    ttft_s: Optional[float] = None,
    e2e_s: Optional[float] = None,
) -> float:
    """Fraction of requests meeting every given target (1.0 if no target)."""
    if not records:
        raise AnalysisError("cannot compute SLO attainment of no requests")
    met = 0
    for record in records:
        if ttft_s is not None and record.ttft_s > ttft_s:
            continue
        if e2e_s is not None and record.e2e_s > e2e_s:
            continue
        met += 1
    return met / len(records)


def attainment_curve(
    records: Sequence[RequestRecord],
    targets: Sequence[float] = DEFAULT_SLO_TTFT_TARGETS_S,
) -> Tuple[Tuple[float, float], ...]:
    """TTFT SLO-attainment at each target: ``((target_s, fraction), ...)``."""
    return tuple(
        (target, slo_attainment(records, ttft_s=target)) for target in targets
    )


# ----------------------------------------------------------------------
# The raw outcome
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServingResult:
    """Raw outcome of one serving simulation (before metric aggregation).

    Attributes:
        policy: Canonical name of the scheduling policy that ran.
        records: One :class:`RequestRecord` per request, in completion
            order (every admitted request is drained).
        makespan_s: Virtual time at which the last request finished.
        busy_s: Total virtual time the engine spent serving.
    """

    policy: str
    records: Tuple[RequestRecord, ...]
    makespan_s: float
    busy_s: float

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


def _time_weighted_depth(result: ServingResult) -> Tuple[float, int]:
    """(time-weighted mean, peak) of the requests in the system.

    At one instant, arrivals count before completions.
    """
    if not result.records or result.makespan_s <= 0:
        return 0.0, 0
    changes = sorted(
        [(record.request.arrival_s, 0, 1) for record in result.records]
        + [(record.finish_s, 1, -1) for record in result.records]
    )
    area, depth, peak, last_time = 0.0, 0, 0, changes[0][0]
    for time_s, _, step in changes:
        area += depth * (time_s - last_time)
        depth += step
        peak = max(peak, depth)
        last_time = time_s
    return area / result.makespan_s, peak


# ----------------------------------------------------------------------
# The aggregate
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServingMetrics:
    """Aggregated analytics of one serving simulation.

    Attributes:
        requests: Completed request count.
        makespan_s: Virtual time of the last completion.
        throughput_rps: Completed requests per virtual second.
        throughput_tps: Generated (output) tokens per virtual second.
        queue_wait: Queueing-delay summary.
        ttft: Time-to-first-token summary.
        tpot: Time-per-output-token summary (over multi-token replies).
        e2e: End-to-end latency summary.
        utilisation: Fraction of the makespan the engine was busy.
        mean_queue_depth: Time-weighted mean of requests in the system.
        peak_queue_depth: Maximum requests simultaneously in the system.
        energy_per_request_joules: Mean energy per request.
        total_energy_joules: Energy over all requests.
        slo_curve: TTFT SLO-attainment curve ``((target_s, fraction), ...)``.
    """

    requests: int
    makespan_s: float
    throughput_rps: float
    throughput_tps: float
    queue_wait: LatencySummary
    ttft: LatencySummary
    tpot: LatencySummary
    e2e: LatencySummary
    utilisation: float
    mean_queue_depth: float
    peak_queue_depth: int
    energy_per_request_joules: float
    total_energy_joules: float
    slo_curve: Tuple[Tuple[float, float], ...]

    @classmethod
    def from_result(
        cls,
        result: ServingResult,
        *,
        slo_targets: Sequence[float] = DEFAULT_SLO_TTFT_TARGETS_S,
    ) -> "ServingMetrics":
        """Aggregate one simulation outcome."""
        records = result.records
        if not records:
            raise AnalysisError("the simulation completed no requests")
        tpot_values = [
            record.tpot_s for record in records if record.request.output_tokens > 1
        ]
        mean_depth, peak_depth = _time_weighted_depth(result)
        total_energy = reduce(add, (record.energy_joules for record in records), 0)
        makespan = result.makespan_s
        return cls(
            requests=len(records),
            makespan_s=makespan,
            throughput_rps=len(records) / makespan if makespan > 0 else 0.0,
            throughput_tps=(
                result.generated_tokens / makespan if makespan > 0 else 0.0
            ),
            queue_wait=LatencySummary.of([r.queue_wait_s for r in records]),
            ttft=LatencySummary.of([r.ttft_s for r in records]),
            tpot=(
                LatencySummary.of(tpot_values)
                if tpot_values
                else LatencySummary.zero()
            ),
            e2e=LatencySummary.of([r.e2e_s for r in records]),
            utilisation=result.utilisation,
            mean_queue_depth=mean_depth,
            peak_queue_depth=peak_depth,
            energy_per_request_joules=total_energy / len(records),
            total_energy_joules=total_energy,
            slo_curve=attainment_curve(records, slo_targets),
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form."""
        return {
            "requests": self.requests,
            "makespan_s": self.makespan_s,
            "throughput_rps": self.throughput_rps,
            "throughput_tps": self.throughput_tps,
            "queue_wait_s": self.queue_wait.to_dict(),
            "ttft_s": self.ttft.to_dict(),
            "tpot_s": self.tpot.to_dict(),
            "e2e_s": self.e2e.to_dict(),
            "utilisation": self.utilisation,
            "mean_queue_depth": self.mean_queue_depth,
            "peak_queue_depth": self.peak_queue_depth,
            "energy_per_request_joules": self.energy_per_request_joules,
            "total_energy_joules": self.total_energy_joules,
            "slo_curve": [
                {"ttft_target_s": target, "attainment": fraction}
                for target, fraction in self.slo_curve
            ],
        }


@dataclass(frozen=True)
class ServingReport:
    """A serving simulation plus its provenance — the ``serve`` deliverable.

    Attributes:
        model: Name of the served model configuration.
        num_chips: Chip count of the platform.
        strategy: Partitioning strategy that produced the phase costs.
        policy: Scheduling policy that ran.
        seed: Trace seed.
        result: The raw simulation outcome.
        metrics: The aggregated analytics.
    """

    model: str
    num_chips: int
    strategy: str
    policy: str
    seed: int
    result: ServingResult
    metrics: ServingMetrics

    def to_dict(self, *, cache=None) -> Dict[str, Any]:
        """JSON-serialisable form (the ``repro serve --json`` document).

        Pass the evaluating session's
        :meth:`~repro.api.Session.cache_info` as ``cache`` to make the
        phase-cost memoisation reuse observable in the output.
        """
        document: Dict[str, Any] = {
            "model": self.model,
            "num_chips": self.num_chips,
            "strategy": self.strategy,
            "policy": self.policy,
            "seed": self.seed,
            "metrics": self.metrics.to_dict(),
        }
        if cache is not None:
            document["cache"] = cache.to_dict()
        ordered = sorted(self.result.records, key=lambda r: r.request.request_id)
        document["records"] = [record.to_dict() for record in ordered]
        return document

    def to_json(self, *, cache=None) -> str:
        """Deterministic JSON document (sorted keys, stable float reprs)."""
        return json.dumps(self.to_dict(cache=cache), indent=2, sort_keys=True)

    def render(self) -> str:
        """Plain-text summary of the headline serving numbers."""
        metrics = self.metrics
        lines: List[str] = [
            (
                f"Served {metrics.requests} requests of {self.model} on "
                f"{self.num_chips} chip(s) "
                f"[strategy={self.strategy}, policy={self.policy}, "
                f"seed={self.seed}]"
            ),
            (
                f"  makespan    : {metrics.makespan_s:.2f} s  "
                f"(utilisation {metrics.utilisation * 100:.1f}%)"
            ),
            (
                f"  throughput  : {metrics.throughput_rps:.3f} req/s, "
                f"{metrics.throughput_tps:.2f} tok/s"
            ),
            _latency_line("queue wait", metrics.queue_wait),
            _latency_line("TTFT", metrics.ttft),
            _latency_line("TPOT", metrics.tpot),
            _latency_line("e2e", metrics.e2e),
            (
                f"  queue depth : mean {metrics.mean_queue_depth:.2f}, "
                f"peak {metrics.peak_queue_depth}"
            ),
            (
                f"  energy      : "
                f"{metrics.energy_per_request_joules * 1e3:.3f} mJ/request "
                f"({metrics.total_energy_joules:.3f} J total)"
            ),
            "  SLO (TTFT)  : "
            + ", ".join(
                f"<{target:g}s: {fraction * 100:.1f}%"
                for target, fraction in metrics.slo_curve
            ),
        ]
        return "\n".join(lines)


def _latency_line(label: str, summary: LatencySummary) -> str:
    return (
        f"  {label:<11} : p50 {summary.p50 * 1e3:.1f} ms, "
        f"p95 {summary.p95 * 1e3:.1f} ms, p99 {summary.p99 * 1e3:.1f} ms, "
        f"max {summary.max * 1e3:.1f} ms"
    )
