"""Compute cluster model.

Each Siracusa chip contains an accelerator cluster of eight RISC-V cores
with DSP/ML instruction extensions, running at 500 MHz, with an average
power of 13 mW per core (numbers from the paper's experimental setup and
from the Siracusa publication it cites; :mod:`repro.hw.presets` holds
them).  The cores access the 16-bank L1 memory through a logarithmic
interconnect with one 32-bit port per core, i.e. 32 bytes per cycle of
aggregate L1 bandwidth.

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

    num_cores: int
    frequency_hz: float
    macs_per_core_per_cycle: float
    power_per_core_w: float
    l1_bytes_per_core_per_cycle: float

    def __post_init__(self) -> None:
        # Each check negates the valid range, so NaN fails it too.
        if not self.num_cores > 0:
            raise ConfigurationError("cluster must have at least one core")
        if self.frequency_hz <= 0:
            raise ConfigurationError("cluster frequency must be positive")
        if not math.isfinite(self.frequency_hz):
            # An infinite clock prices every link transfer at 0 B/cycle.
            raise ConfigurationError("cluster frequency must be finite")
        if not self.macs_per_core_per_cycle > 0:
            raise ConfigurationError("MAC throughput must be positive")
        if not math.isfinite(self.macs_per_core_per_cycle):
            raise ConfigurationError("MAC throughput must be finite")
        if not self.power_per_core_w >= 0:
            raise ConfigurationError("core power must be non-negative")
        if not math.isfinite(self.power_per_core_w):
            raise ConfigurationError("core power must be finite")
        if not self.l1_bytes_per_core_per_cycle > 0:
            raise ConfigurationError("L1 port bandwidth must be positive")
        if not math.isfinite(self.l1_bytes_per_core_per_cycle):
            raise ConfigurationError("L1 port bandwidth must be finite")

    @property
    def peak_macs_per_cycle(self) -> float:
        """Aggregate peak MAC throughput of the cluster per cycle."""
        return self.num_cores * self.macs_per_core_per_cycle

    @property
    def power_w(self) -> float:
        """Total active power of the cluster in watts."""
        return self.num_cores * self.power_per_core_w
