"""Compute cluster model.

Each Siracusa chip contains an accelerator cluster of eight RISC-V cores
with DSP/ML instruction extensions, running at 500 MHz, with an average
power of 13 mW per core (numbers from the paper's experimental setup and
from the Siracusa publication it cites).  The cores access the 16-bank L1
memory through a logarithmic interconnect with one 32-bit port per core,
i.e. 32 bytes per cycle of aggregate L1 bandwidth.

The N-EUREKA accelerator present on Siracusa is intentionally *not*
modelled, matching the paper ("we do not use Siracusa's N-EUREKA
accelerator").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ConfigurationError


@dataclass(frozen=True)
class ClusterModel:
    """Analytical model of an MCU compute cluster.

    Attributes:
        num_cores: Number of cluster cores.
        frequency_hz: Cluster clock frequency.
        macs_per_core_per_cycle: Peak int8 multiply-accumulate throughput of
            one core (SIMD dot-product instructions).
        power_per_core_w: Average active power of one core in watts.
        l1_bytes_per_core_per_cycle: L1 load bandwidth available to each
            core through its interconnect port (4 bytes for a 32-bit port).
    """

    num_cores: int = 8
    frequency_hz: float = 500e6
    macs_per_core_per_cycle: float = 2.0
    power_per_core_w: float = 13e-3
    l1_bytes_per_core_per_cycle: float = 4.0

    def __post_init__(self) -> None:
        if self.num_cores <= 0:
            raise ConfigurationError("cluster must have at least one core")
        if self.frequency_hz <= 0:
            raise ConfigurationError("cluster frequency must be positive")
        if not math.isfinite(self.frequency_hz):
            # An infinite clock prices every link transfer at 0 B/cycle.
            raise ConfigurationError("cluster frequency must be finite")
        if self.macs_per_core_per_cycle <= 0:
            raise ConfigurationError("MAC throughput must be positive")
        if self.power_per_core_w < 0:
            raise ConfigurationError("core power must be non-negative")
        if self.l1_bytes_per_core_per_cycle <= 0:
            raise ConfigurationError("L1 port bandwidth must be positive")

    @property
    def peak_macs_per_cycle(self) -> float:
        """Aggregate peak MAC throughput of the cluster per cycle."""
        return self.num_cores * self.macs_per_core_per_cycle

    @property
    def l1_bandwidth_bytes_per_cycle(self) -> float:
        """Aggregate L1 load bandwidth of the cluster per cycle."""
        return self.num_cores * self.l1_bytes_per_core_per_cycle

    @property
    def power_w(self) -> float:
        """Total active power of the cluster in watts."""
        return self.num_cores * self.power_per_core_w

    def cycles_to_seconds(self, cycles: float) -> float:
        """Convert a cycle count to seconds at the cluster clock."""
        return cycles / self.frequency_hz

    def seconds_to_cycles(self, seconds: float) -> float:
        """Convert seconds to cycles at the cluster clock."""
        return seconds * self.frequency_hz

    def compute_energy_joules(self, cycles: float) -> float:
        """Dynamic energy of the cluster being busy for ``cycles`` cycles."""
        return self.power_w * self.cycles_to_seconds(cycles)
