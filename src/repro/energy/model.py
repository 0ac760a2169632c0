"""Analytical energy model.

Implements the paper's total-energy equation (Sec. V-A):

    E_total = N_C2C * E_C2C
            + sum_j ( P * T_comp,j
                      + N_L3<->L2,j * E_L3<->L2
                      + N_L2<->L1,j * E_L2<->L1 )

where ``P`` is the average cluster power (8 cores x 13 mW), ``T_comp,j`` is
the computation time of chip ``j``, the ``N`` terms are transfer byte
counts, and the ``E`` terms are the per-byte transfer energies (100 pJ/B
for chip-to-chip and L3, 2 pJ/B for L2).  All inputs come from the
simulation trace, mirroring how the paper feeds GVSoC measurements into its
analytical model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..errors import AnalysisError
from ..hw.platform import MultiChipPlatform
from ..interning import shared_rows
from ..sim.trace import SimulationResult


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy of one chip (or of the whole system), split by source.

    All values are in joules.
    """

    compute: float
    l2_l1: float
    l3_l2: float
    chip_to_chip: float

    def __post_init__(self) -> None:
        for name in ("compute", "l2_l1", "l3_l2", "chip_to_chip"):
            if getattr(self, name) < 0:
                raise AnalysisError(f"energy component {name} cannot be negative")

    @property
    def total(self) -> float:
        """Total energy in joules."""
        return self.compute + self.l2_l1 + self.l3_l2 + self.chip_to_chip

    def __add__(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        return EnergyBreakdown(
            compute=self.compute + other.compute,
            l2_l1=self.l2_l1 + other.l2_l1,
            l3_l2=self.l3_l2 + other.l3_l2,
            chip_to_chip=self.chip_to_chip + other.chip_to_chip,
        )


@dataclass(frozen=True)
class EnergyReport:
    """System energy of one simulated block.

    Attributes:
        total: System-level breakdown (sum over chips, in chip order).
        runtime_seconds: Block runtime, kept here so the report can compute
            the energy-delay product on its own.
        _packed_per_chip: One ``(chip id, (compute, l2_l1, l3_l2,
            chip_to_chip))`` pair of joules per chip, in chip order, with
            one row shared by chips of equal terms.  Flat rows keep
            building and pickling a report free of per-chip objects;
            :attr:`per_chip` builds the breakdowns on read.
    """

    total: EnergyBreakdown
    runtime_seconds: float
    _packed_per_chip: Tuple[Tuple[int, Tuple[float, float, float, float]], ...]

    @property
    def per_chip(self) -> Dict[int, EnergyBreakdown]:
        """Energy breakdown of each chip, built from the packed rows.

        Chip-to-chip energy is charged to the sending chip.
        """
        return {
            chip_id: EnergyBreakdown(*energies)
            for chip_id, energies in self._packed_per_chip
        }

    @property
    def total_joules(self) -> float:
        """Total system energy in joules."""
        return self.total.total

    @property
    def energy_delay_product(self) -> float:
        """Energy-delay product in joule-seconds."""
        return self.total_joules * self.runtime_seconds


class EnergyModel:
    """Computes system energy from a simulation trace."""

    def __init__(self, platform: MultiChipPlatform) -> None:
        self._platform = platform

    def from_simulation(self, result: SimulationResult) -> EnergyReport:
        """Apply the paper's energy equation to a simulation result."""
        if result.program.platform is not self._platform:
            # The model only needs parameters, not identity, but mixing
            # platforms is almost always a bug in calling code.
            if result.program.platform.chip != self._platform.chip:
                raise AnalysisError(
                    "simulation result was produced on a different chip model "
                    "than the one this energy model was built for"
                )
        chip = self._platform.chip
        cluster = chip.cluster
        link = self._platform.link
        l2_energy = chip.l2.access_energy_pj_per_byte * 1e-12
        l3_energy = chip.l3.access_energy_pj_per_byte * 1e-12

        rows = []
        # The totals add up in chip order from 0.0, as summing the
        # breakdowns one by one would.  Each row's terms are products of
        # counters and parameters that the cluster, memory and link
        # models already reject when negative; the total is checked.
        compute = l2_l1 = l3_l2 = chip_to_chip = 0.0
        for trace in result.chip_traces.values():
            compute_seconds = trace.compute_cycles / cluster.frequency_hz
            chip_compute = cluster.power_w * compute_seconds
            chip_l2_l1 = trace.l2_l1_bytes * l2_energy
            chip_l3_l2 = trace.l3_l2_bytes * l3_energy
            chip_c2c = link.transfer_energy_joules(int(trace.c2c_bytes_sent))
            rows.append((chip_compute, chip_l2_l1, chip_l3_l2, chip_c2c))
            compute += chip_compute
            l2_l1 += chip_l2_l1
            l3_l2 += chip_l3_l2
            chip_to_chip += chip_c2c
        return EnergyReport(
            total=EnergyBreakdown(
                compute=compute, l2_l1=l2_l1, l3_l2=l3_l2, chip_to_chip=chip_to_chip
            ),
            runtime_seconds=result.runtime_seconds,
            _packed_per_chip=tuple(zip(result.chip_traces, shared_rows(rows))),
        )


def energy_of(result: SimulationResult) -> EnergyReport:
    """Convenience wrapper: energy of a simulation on its own platform."""
    return EnergyModel(result.program.platform).from_simulation(result)
