"""DMA transfer cost models.

Two DMA paths matter for the paper's accounting:

* **L2 <-> L1**: the cluster DMA moving kernel tiles between the 2 MiB L2
  scratchpad and the 256 KiB L1, over the 64-bit AXI interconnect
  (8 bytes per cycle).
* **L3 <-> L2**: the chip I/O DMA moving weights between off-chip memory
  and L2.  Off-chip interfaces have lower bandwidth and a noticeable
  per-transaction setup cost, which is why the paper's single-chip
  configurations are dominated by this component.

A transfer of ``n`` bytes costs ``setup_cycles + n / bytes_per_cycle``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ConfigurationError


@dataclass(frozen=True)
class DmaChannelModel:
    """Cost model of one DMA channel between two adjacent memory levels.

    Attributes:
        name: Label used in traces (e.g. ``"L3<->L2"``).
        bytes_per_cycle: Sustained bandwidth of the channel.
        setup_cycles: Fixed cost per programmed transfer (descriptor setup,
            address generation, off-chip command overhead).
    """

    name: str
    bytes_per_cycle: float
    setup_cycles: int = 0

    def __post_init__(self) -> None:
        # Each check negates the valid range, so NaN fails it too.
        if not self.bytes_per_cycle > 0:
            raise ConfigurationError(f"DMA {self.name!r} bandwidth must be positive")
        if not math.isfinite(self.bytes_per_cycle):
            raise ConfigurationError(f"DMA {self.name!r} bandwidth must be finite")
        if not self.setup_cycles >= 0:
            raise ConfigurationError(f"DMA {self.name!r} setup cost must be >= 0")

    def transfer_cycles(self, num_bytes: int, num_transfers: int = 1) -> float:
        """Cycles to move ``num_bytes`` split over ``num_transfers`` transfers."""
        if num_bytes < 0:
            raise ConfigurationError("transfer size must be non-negative")
        if num_transfers <= 0:
            raise ConfigurationError("number of transfers must be positive")
        if num_bytes == 0:
            return 0.0
        return num_transfers * self.setup_cycles + num_bytes / self.bytes_per_cycle


@dataclass(frozen=True)
class DmaModel:
    """The pair of DMA channels of one chip."""

    l2_l1: DmaChannelModel
    l3_l2: DmaChannelModel
