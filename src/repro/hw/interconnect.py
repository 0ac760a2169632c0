"""Chip-to-chip interconnect model.

The paper connects the Siracusa chips with a MIPI serial interface,
modelled analytically with a bandwidth of 0.5 GB/s and an energy cost of
100 pJ per byte.  All-reduce operations are performed hierarchically in
groups of four chips (Fig. 1 of the paper) to limit contention: transfers
inside different groups use different physical links and can proceed in
parallel, while transfers converging on the same receiver serialise.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError
from ..units import gigabytes_per_second


@dataclass(frozen=True)
class ChipToChipLink:
    """Point-to-point chip-to-chip link cost model.

    Attributes:
        name: Label used in traces.
        bandwidth_bytes_per_s: Sustained link bandwidth.
        energy_pj_per_byte: Energy per transferred byte.
        latency_cycles: Fixed per-message latency in *cluster* cycles
            (protocol framing, synchronisation handshake; 1000 cycles is
            2 us at 500 MHz, a typical bring-up cost for a serial link).
    """

    name: str = "MIPI"
    bandwidth_bytes_per_s: float = gigabytes_per_second(0.5)
    energy_pj_per_byte: float = 100.0
    latency_cycles: int = 1000

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_per_s <= 0:
            raise ConfigurationError("link bandwidth must be positive")
        if self.energy_pj_per_byte < 0:
            raise ConfigurationError("link energy must be non-negative")
        if self.latency_cycles < 0:
            raise ConfigurationError("link latency must be non-negative")

    def __getstate__(self) -> dict:
        # The content-hash memo (repro.api.session) is per-process state
        # and would bloat every cached evaluation.
        state = dict(self.__dict__)
        state.pop("_repro_canonical_memo", None)
        return state

    def bytes_per_cycle(self, frequency_hz: float) -> float:
        """Link bandwidth expressed in bytes per cluster cycle."""
        if frequency_hz <= 0:
            raise ConfigurationError("frequency must be positive")
        return self.bandwidth_bytes_per_s / frequency_hz

    def transfer_cycles(self, num_bytes: int, frequency_hz: float) -> float:
        """Cycles to move one message of ``num_bytes`` over the link."""
        if num_bytes < 0:
            raise ConfigurationError("message size must be non-negative")
        if num_bytes == 0:
            return 0.0
        return self.latency_cycles + num_bytes / self.bytes_per_cycle(frequency_hz)

    def transfer_energy_joules(self, num_bytes: int) -> float:
        """Energy to move ``num_bytes`` over the link."""
        if num_bytes < 0:
            raise ConfigurationError("message size must be non-negative")
        return num_bytes * self.energy_pj_per_byte * 1e-12


def mipi_link() -> ChipToChipLink:
    """The MIPI link parameters used throughout the paper."""
    return ChipToChipLink()
