"""Derived metrics: speedups, energy ratios, EDP improvements."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from ..errors import AnalysisError

if TYPE_CHECKING:  # pragma: no cover - repro.api imports this package
    from ..api.result import EvalResult


def speedup(baseline_cycles: float, cycles: float) -> float:
    """Runtime speedup of ``cycles`` relative to ``baseline_cycles``."""
    if cycles <= 0:
        raise AnalysisError("cycles must be positive to compute a speedup")
    if baseline_cycles < 0:
        raise AnalysisError("baseline cycles cannot be negative")
    return baseline_cycles / cycles


def energy_ratio(baseline_joules: float, joules: float) -> float:
    """Energy improvement factor relative to a baseline (>1 means better)."""
    if joules <= 0:
        raise AnalysisError("energy must be positive to compute a ratio")
    if baseline_joules < 0:
        raise AnalysisError("baseline energy cannot be negative")
    return baseline_joules / joules


def edp_improvement(baseline_edp: float, edp: float) -> float:
    """Energy-delay-product improvement factor relative to a baseline."""
    if edp <= 0:
        raise AnalysisError("EDP must be positive to compute an improvement")
    if baseline_edp < 0:
        raise AnalysisError("baseline EDP cannot be negative")
    return baseline_edp / edp


def is_super_linear(speedup_value: float, num_chips: int) -> bool:
    """Whether a speedup exceeds the ideal linear scaling for a chip count."""
    if num_chips <= 0:
        raise AnalysisError("num_chips must be positive")
    return speedup_value > num_chips


def parallel_efficiency(speedup_value: float, num_chips: int) -> float:
    """Speedup divided by the chip count (1.0 = perfectly linear)."""
    if num_chips <= 0:
        raise AnalysisError("num_chips must be positive")
    return speedup_value / num_chips


@dataclass(frozen=True)
class ScalingPoint:
    """One point of a chip-count scaling study."""

    num_chips: int
    cycles: float
    energy_joules: float
    speedup: float
    energy_improvement: float
    edp_improvement: float
    runs_from_on_chip_memory: bool

    @property
    def parallel_efficiency(self) -> float:
        """Speedup per chip."""
        return self.speedup / self.num_chips

    @property
    def is_super_linear(self) -> bool:
        """Whether this point scales better than linearly."""
        return self.speedup > self.num_chips


def scaling_points(results: Sequence["EvalResult"]) -> list[ScalingPoint]:
    """Turn a chip-count sweep into scaling points relative to its first entry.

    Pass ``sweep.results`` of an :class:`~repro.api.EvalSweep`.  The first
    result is used as the baseline (the paper always normalises to the
    single-chip system).

    Raises:
        AnalysisError: If the sequence is empty or mixes workloads.
    """
    if not results:
        raise AnalysisError("cannot compute scaling points of an empty sweep")
    names = {result.workload.name for result in results}
    if len(names) > 1:
        raise AnalysisError(f"sweep mixes different workloads: {sorted(names)}")
    baseline = results[0]
    points = []
    for result in results:
        points.append(
            ScalingPoint(
                num_chips=result.num_chips,
                cycles=result.block_cycles,
                energy_joules=result.block_energy_joules,
                speedup=speedup(baseline.block_cycles, result.block_cycles),
                energy_improvement=energy_ratio(
                    baseline.block_energy_joules, result.block_energy_joules
                ),
                edp_improvement=edp_improvement(
                    baseline.energy_delay_product, result.energy_delay_product
                ),
                runs_from_on_chip_memory=result.runs_from_on_chip_memory,
            )
        )
    return points
