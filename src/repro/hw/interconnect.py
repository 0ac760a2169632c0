"""Chip-to-chip interconnect model.

The paper connects the Siracusa chips with a MIPI serial interface,
modelled analytically with a bandwidth of 0.5 GB/s and an energy cost of
100 pJ per byte (:mod:`repro.hw.presets` holds those numbers).
All-reduce operations are performed hierarchically in groups of four
chips (Fig. 1 of the paper) to limit contention: transfers inside
different groups use different physical links and can proceed in
parallel, while transfers converging on the same receiver serialise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ConfigurationError


@dataclass(frozen=True)
class ChipToChipLink:
    """Point-to-point chip-to-chip link cost model.

    Attributes:
        name: Label used in traces.
        bandwidth_bytes_per_s: Sustained link bandwidth.
        energy_pj_per_byte: Energy per transferred byte.
        latency_cycles: Fixed per-message latency in *cluster* cycles
            (protocol framing, synchronisation handshake).
    """

    name: str
    bandwidth_bytes_per_s: float
    energy_pj_per_byte: float
    latency_cycles: int

    def __post_init__(self) -> None:
        # Each check negates the valid range, so NaN fails it too.
        if not self.bandwidth_bytes_per_s > 0:
            raise ConfigurationError("link bandwidth must be positive")
        if not math.isfinite(self.bandwidth_bytes_per_s):
            raise ConfigurationError("link bandwidth must be finite")
        if not self.energy_pj_per_byte >= 0:
            raise ConfigurationError("link energy must be non-negative")
        if not math.isfinite(self.energy_pj_per_byte):
            raise ConfigurationError("link energy must be finite")
        if not self.latency_cycles >= 0:
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
