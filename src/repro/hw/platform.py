"""Multi-chip platform model.

A :class:`MultiChipPlatform` is a set of identical chips connected by
point-to-point chip-to-chip links and organised hierarchically in groups
(of four, in the paper) for collective operations.  The platform is purely
structural; the communication *schedules* over it (hierarchical all-reduce
and broadcast) are produced by :mod:`repro.core.collectives`.
"""

from __future__ import annotations

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
    group_size: int

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
    def root_chip_id(self) -> int:
        """Chip on which hierarchical reductions terminate."""
        return 0

    def chip_ids(self) -> List[int]:
        """The list of chip identifiers, in order."""
        return list(range(self.num_chips))

    def with_num_chips(self, num_chips: int) -> "MultiChipPlatform":
        """Return a platform identical to this one but with ``num_chips`` chips."""
        return MultiChipPlatform(
            chip=self.chip,
            num_chips=num_chips,
            link=self.link,
            group_size=self.group_size,
        )
