"""The unified evaluation result shared by every partitioning strategy.

:class:`EvalResult` is the one schema every registered strategy produces,
whether the strategy runs the full block simulator (the paper's
scheme) or an analytical cost model (the Table I baselines, which build
it directly).  Simulator-backed strategies also attach the complete
:class:`repro.analysis.evaluate.BlockReport` (runtime breakdown, traces,
memory plans) in the optional :attr:`EvalResult.report` field.

All strategies therefore expose the same runtime, energy, traffic, and
placement fields, which is what makes :meth:`repro.api.Session.compare`
and cross-strategy sweeps possible without per-strategy special cases.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..analysis.evaluate import BlockReport
from ..core.placement import WeightResidency
from ..core.schedule import RuntimeCategory
from ..errors import AnalysisError
from ..graph.workload import Workload

#: The runtime-breakdown columns of :meth:`EvalResult.to_dict`.
_BREAKDOWN_COLUMNS = (
    ("compute_cycles", RuntimeCategory.COMPUTE),
    ("dma_l3_l2_cycles", RuntimeCategory.DMA_L3_L2),
    ("dma_l2_l1_cycles", RuntimeCategory.DMA_L2_L1),
    ("chip_to_chip_cycles", RuntimeCategory.CHIP_TO_CHIP),
    ("idle_cycles", RuntimeCategory.IDLE),
)


@dataclass(frozen=True)
class EvalResult:
    """Evaluation of one workload under one partitioning strategy.

    Attributes:
        strategy: Registry name of the strategy (e.g. ``"paper"``).
        approach: Human-readable approach label (the Table I row name).
        workload: The evaluated workload.
        num_chips: Number of chips of the evaluated platform.
        frequency_hz: Cluster clock frequency of the platform.
        block_cycles: Runtime of one Transformer block in cycles.
        block_energy_joules: Energy of one Transformer block in joules.
        l3_bytes_per_block: Off-chip (L3) traffic per block, over all chips.
        weight_bytes_per_chip: Block weight bytes each chip must store
            (the maximum over chips for uneven partitions).
        weights_replicated: Whether weights are duplicated across chips.
        synchronisations_per_block: Inter-chip synchronisation points per
            block (0 on a single chip).
        uses_pipelining: Whether the strategy relies on pipeline
            parallelism (and therefore on batching for utilisation).
        notes: Free-form remarks shown in comparison tables.
        c2c_bytes_per_block: Chip-to-chip traffic per block, when the
            strategy measures it (``None`` for analytical baselines that
            fold communication into the cycle count).
        report: The full simulator-backed :class:`BlockReport` when the
            strategy ran the multi-chip simulator, else ``None``.
    """

    strategy: str
    approach: str
    workload: Workload
    num_chips: int
    frequency_hz: float
    block_cycles: float
    block_energy_joules: float
    l3_bytes_per_block: float
    weight_bytes_per_chip: int
    weights_replicated: bool
    synchronisations_per_block: int
    uses_pipelining: bool = False
    notes: str = ""
    c2c_bytes_per_block: Optional[float] = None
    report: Optional[BlockReport] = None

    def __post_init__(self) -> None:
        if not self.strategy:
            raise AnalysisError("strategy name must not be empty")
        if self.num_chips <= 0:
            raise AnalysisError("num_chips must be positive")
        if self.frequency_hz <= 0:
            raise AnalysisError("frequency_hz must be positive")
        # Negated ranges, so a NaN from a broken model fails them too.
        if not self.block_cycles > 0:
            raise AnalysisError("block_cycles must be positive")
        if not math.isfinite(self.block_cycles):
            raise AnalysisError("block_cycles must be finite")
        if not (self.block_energy_joules >= 0 and self.l3_bytes_per_block >= 0):
            raise AnalysisError("energy and traffic cannot be negative")
        if not (
            math.isfinite(self.block_energy_joules)
            and math.isfinite(self.l3_bytes_per_block)
        ):
            raise AnalysisError("energy and traffic must be finite")
        if self.weight_bytes_per_chip < 0:
            raise AnalysisError("weight bytes cannot be negative")

    # ------------------------------------------------------------------
    # Runtime
    # ------------------------------------------------------------------
    @property
    def block_runtime_seconds(self) -> float:
        """Runtime of one Transformer block in seconds."""
        return self.block_cycles / self.frequency_hz

    @property
    def inference_cycles(self) -> float:
        """Estimated runtime of a full forward pass (all blocks) in cycles."""
        return self.block_cycles * self.workload.config.num_layers

    @property
    def inference_runtime_seconds(self) -> float:
        """Estimated runtime of a full forward pass in seconds."""
        return self.inference_cycles / self.frequency_hz

    def runtime_breakdown(self) -> Optional[Dict[RuntimeCategory, float]]:
        """Average per-chip cycles by category, when the simulator ran."""
        if self.report is None:
            return None
        return self.report.runtime_breakdown()

    def speedup_over(self, other: "EvalResult") -> float:
        """Runtime speedup of this result over another."""
        return other.block_cycles / self.block_cycles

    # ------------------------------------------------------------------
    # Energy
    # ------------------------------------------------------------------
    @property
    def inference_energy_joules(self) -> float:
        """Estimated energy of a full forward pass in joules."""
        return self.block_energy_joules * self.workload.config.num_layers

    @property
    def energy_delay_product(self) -> float:
        """Per-block energy-delay product in joule-seconds."""
        return self.block_energy_joules * self.block_runtime_seconds

    @property
    def edp_joule_cycles(self) -> float:
        """EDP proxy in joule-cycles (frequency-independent comparison)."""
        return self.block_energy_joules * self.block_cycles

    # ------------------------------------------------------------------
    # Memory placement
    # ------------------------------------------------------------------
    def residencies(self) -> Optional[Dict[int, WeightResidency]]:
        """Per-chip weight-residency regimes, when the simulator ran."""
        if self.report is None:
            return None
        return self.report.residencies()

    @property
    def runs_from_on_chip_memory(self) -> Optional[bool]:
        """Whether every chip runs with on-chip weights (``None`` if unknown)."""
        if self.report is None:
            return None
        return self.report.runs_from_on_chip_memory

    # ------------------------------------------------------------------
    # Presentation and conversion
    # ------------------------------------------------------------------
    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"[{self.strategy}] {self.workload.name} on {self.num_chips} "
            f"chip(s): {self.block_cycles:,.0f} cycles/block, "
            f"{self.block_energy_joules * 1e3:.3f} mJ/block"
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (the ``repro evaluate --json`` document).

        Every strategy writes one schema: an analytical result, which
        carries no :class:`BlockReport`, writes the fields only the
        simulator fills (residencies, breakdowns) as ``None``.
        """
        report = self.report
        record: Dict[str, Any] = {
            "workload": self.workload.name,
            "num_chips": self.num_chips,
            "block_cycles": self.block_cycles,
            "block_runtime_seconds": self.block_runtime_seconds,
            "block_energy_joules": self.block_energy_joules,
            "energy_delay_product": self.energy_delay_product,
            "l3_bytes": self.l3_bytes_per_block,
            "c2c_bytes": self.c2c_bytes_per_block,
            "on_chip": self.runs_from_on_chip_memory,
            "residencies": None,
            "energy_breakdown_joules": None,
            "strategy": self.strategy,
            "approach": self.approach,
            "weight_bytes_per_chip": self.weight_bytes_per_chip,
            "weights_replicated": self.weights_replicated,
            "synchronisations_per_block": self.synchronisations_per_block,
            "uses_pipelining": self.uses_pipelining,
            "notes": self.notes,
        }
        breakdown = self.runtime_breakdown() or {}
        for column, category in _BREAKDOWN_COLUMNS:
            record[column] = breakdown.get(category)
        if report is not None:
            record["residencies"] = {
                str(chip_id): residency.value
                for chip_id, residency in report.residencies().items()
            }
            energy = report.energy.total
            record["energy_breakdown_joules"] = {
                "compute": energy.compute,
                "l2_l1": energy.l2_l1,
                "l3_l2": energy.l3_l2,
                "chip_to_chip": energy.chip_to_chip,
            }
        return record

    def to_json(self) -> str:
        """Deterministic JSON document (sorted keys, stable float reprs)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_block_report(
        cls,
        report: BlockReport,
        *,
        strategy: str,
        approach: str,
        weights_replicated: bool = False,
        synchronisations_per_block: Optional[int] = None,
        uses_pipelining: bool = False,
        notes: str = "",
    ) -> "EvalResult":
        """Wrap a simulator-backed :class:`BlockReport` as an :class:`EvalResult`."""
        if synchronisations_per_block is None:
            synchronisations_per_block = 0 if report.num_chips == 1 else 2
        weight_bytes_per_chip = max(
            plan.block_weight_bytes
            for plan in report.program.memory_plans.values()
        )
        return cls(
            strategy=strategy,
            approach=approach,
            workload=report.workload,
            num_chips=report.num_chips,
            frequency_hz=report.platform.frequency_hz,
            block_cycles=report.block_cycles,
            block_energy_joules=report.block_energy_joules,
            l3_bytes_per_block=report.total_l3_bytes,
            weight_bytes_per_chip=weight_bytes_per_chip,
            weights_replicated=weights_replicated,
            synchronisations_per_block=synchronisations_per_block,
            uses_pipelining=uses_pipelining,
            notes=notes,
            c2c_bytes_per_block=report.total_c2c_bytes,
            report=report,
        )
