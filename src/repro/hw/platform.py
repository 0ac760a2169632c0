"""Multi-chip platform model.

A :class:`MultiChipPlatform` is a set of identical chips connected by
point-to-point chip-to-chip links and organised hierarchically in groups
(of four, in the paper) for collective operations.  The platform is purely
structural; the communication *schedules* over it (hierarchical all-reduce
and broadcast) are produced by :mod:`repro.core.collectives`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from ..errors import ConfigurationError
from ..interning import reduce_interned
from .chip import ChipModel
from .interconnect import ChipToChipLink


@dataclass(frozen=True)
class MultiChipPlatform:
    """A system of ``num_chips`` identical MCUs joined by C2C links.

    Attributes:
        chip: The hardware model shared by every chip.
        num_chips: Number of chips in the system.
        link: The chip-to-chip link model.
        group_size: Fan-in of the hierarchical reduction tree (4 in the
            paper, Fig. 1).
    """

    chip: ChipModel
    num_chips: int
    link: ChipToChipLink
    group_size: int = 4

    def __post_init__(self) -> None:
        if self.num_chips <= 0:
            raise ConfigurationError("platform needs at least one chip")
        if self.group_size < 2:
            raise ConfigurationError("group size must be at least 2")

    # Stored results share one platform per value (see repro.interning).
    __reduce_ex__ = reduce_interned

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    @property
    def frequency_hz(self) -> float:
        """Cluster clock frequency, shared by all chips."""
        return self.chip.frequency_hz

    @property
    def is_single_chip(self) -> bool:
        """Whether the system degenerates to one chip (no communication)."""
        return self.num_chips == 1

    @property
    def root_chip_id(self) -> int:
        """Chip on which hierarchical reductions terminate."""
        return 0

    @property
    def num_tree_levels(self) -> int:
        """Depth of the hierarchical reduction tree."""
        levels = 0
        remaining = self.num_chips
        while remaining > 1:
            remaining = math.ceil(remaining / self.group_size)
            levels += 1
        return levels

    @property
    def aggregate_l2_bytes(self) -> int:
        """Total L2 capacity of the system."""
        return self.num_chips * self.chip.l2.size_bytes

    @property
    def aggregate_on_chip_bytes(self) -> int:
        """Total on-chip (L1 + L2) capacity of the system."""
        return self.num_chips * self.chip.memory.on_chip_bytes

    def chip_ids(self) -> List[int]:
        """The list of chip identifiers, in order."""
        return list(range(self.num_chips))

    def group_of(self, chip_id: int, level: int = 0) -> int:
        """Return the group index of ``chip_id`` at a given tree level.

        At level 0 chips ``0..group_size-1`` form group 0, the next
        ``group_size`` chips form group 1, and so on.  At level ``k`` the
        same rule is applied to the group *leaders* of level ``k-1``.
        """
        self._check_chip_id(chip_id)
        if level < 0:
            raise ConfigurationError("tree level must be non-negative")
        stride = self.group_size ** (level + 1)
        return chip_id // stride

    def group_leader(self, chip_id: int, level: int = 0) -> int:
        """Return the leader chip of ``chip_id``'s group at the given level.

        The leader of a group is its lowest-numbered member, which makes
        chip 0 the final reduction root.
        """
        self._check_chip_id(chip_id)
        stride = self.group_size ** (level + 1)
        return (chip_id // stride) * stride

    def with_num_chips(self, num_chips: int) -> "MultiChipPlatform":
        """Return a platform identical to this one but with ``num_chips`` chips."""
        return MultiChipPlatform(
            chip=self.chip,
            num_chips=num_chips,
            link=self.link,
            group_size=self.group_size,
        )

    def _check_chip_id(self, chip_id: int) -> None:
        if not 0 <= chip_id < self.num_chips:
            raise ConfigurationError(
                f"chip id {chip_id} out of range for a {self.num_chips}-chip system"
            )
