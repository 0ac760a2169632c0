"""Memory hierarchy models.

Each Siracusa-like chip has a three-level hierarchy (Sec. II-B of the
paper):

* **L1**: 256 KiB of tightly-coupled data memory (16 banks), single-cycle
  access from the eight cluster cores,
* **L2**: 2 MiB of on-chip scratchpad, reached through the AXI interconnect,
* **L3**: off-chip memory (external RAM/flash), reached through the chip I/O.

The cost models only need each level's capacity, its per-byte access energy
(the paper uses 2 pJ/B for L2 and 100 pJ/B for L3), and the DMA bandwidth
between adjacent levels (modelled in :mod:`repro.hw.dma`).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from ..errors import ConfigurationError


class MemoryLevelName(str, enum.Enum):
    """Canonical names of the three memory levels."""

    L1 = "L1"
    L2 = "L2"
    L3 = "L3"


@dataclass(frozen=True)
class MemoryLevel:
    """One level of the memory hierarchy.

    Attributes:
        name: Which level this is.
        size_bytes: Capacity in bytes.  L3 (off-chip) may be modelled as
            effectively unbounded by passing a very large value.
        access_energy_pj_per_byte: Energy to move one byte into or out of
            this level, in picojoules per byte.
        num_banks: Number of interleaved banks (informational; L1 has 16).
    """

    name: MemoryLevelName
    size_bytes: int
    access_energy_pj_per_byte: float
    num_banks: int = 1

    def __post_init__(self) -> None:
        # Each check negates the valid range, so NaN fails it too.
        if not self.size_bytes > 0:
            raise ConfigurationError(f"{self.name.value} size must be positive")
        if not self.access_energy_pj_per_byte >= 0:
            raise ConfigurationError(
                f"{self.name.value} access energy must be non-negative"
            )
        if not math.isfinite(self.access_energy_pj_per_byte):
            raise ConfigurationError(
                f"{self.name.value} access energy must be finite"
            )
        if not self.num_banks > 0:
            raise ConfigurationError(f"{self.name.value} bank count must be positive")


@dataclass(frozen=True)
class MemoryHierarchy:
    """The three-level memory hierarchy of one chip plus off-chip memory."""

    l1: MemoryLevel
    l2: MemoryLevel
    l3: MemoryLevel

    def __post_init__(self) -> None:
        expected = {
            "l1": MemoryLevelName.L1,
            "l2": MemoryLevelName.L2,
            "l3": MemoryLevelName.L3,
        }
        for attr, name in expected.items():
            level = getattr(self, attr)
            if level.name is not name:
                raise ConfigurationError(
                    f"hierarchy field {attr!r} must be a {name.value} level, "
                    f"got {level.name.value}"
                )
