"""Single-chip model: cluster + memory hierarchy + DMA engines."""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError
from .cluster import ClusterModel
from .dma import DmaModel
from .memory import MemoryHierarchy, MemoryLevel, MemoryLevelName


@dataclass(frozen=True)
class ChipModel:
    """One Siracusa-like MCU.

    Attributes:
        name: Chip model name (used in reports).
        cluster: Compute cluster model.
        memory: Three-level memory hierarchy.
        dma: DMA channel models (L2<->L1 and L3<->L2).
        l2_runtime_reserve_bytes: L2 bytes reserved for code, stacks, the
            runtime, and scratch buffers and therefore unavailable for
            weights, KV-cache, or resident activations.  This is the main
            knob that determines where the on-chip-residency crossover
            falls (see "Calibrated constants" in ``docs/MODELS.md``).
    """

    name: str
    cluster: ClusterModel
    memory: MemoryHierarchy
    dma: DmaModel
    l2_runtime_reserve_bytes: int = 0

    def __post_init__(self) -> None:
        if self.l2_runtime_reserve_bytes < 0:
            raise ConfigurationError("L2 reserve must be non-negative")
        if self.l2_runtime_reserve_bytes >= self.memory.l2.size_bytes:
            raise ConfigurationError(
                "L2 reserve must be smaller than the L2 capacity"
            )

    def __getstate__(self) -> dict:
        # The content-hash memo (repro.api.session) is per-process state
        # and would bloat every cached evaluation.
        state = dict(self.__dict__)
        state.pop("_repro_canonical_memo", None)
        return state

    @property
    def l1(self) -> MemoryLevel:
        """The L1 tightly-coupled data memory."""
        return self.memory.l1

    @property
    def l2(self) -> MemoryLevel:
        """The L2 on-chip scratchpad."""
        return self.memory.l2

    @property
    def l3(self) -> MemoryLevel:
        """The off-chip memory."""
        return self.memory.l3

    @property
    def l2_available_bytes(self) -> int:
        """L2 bytes usable for model data after the runtime reserve."""
        return self.memory.l2.size_bytes - self.l2_runtime_reserve_bytes

    @property
    def frequency_hz(self) -> float:
        """Cluster clock frequency."""
        return self.cluster.frequency_hz

    def access_energy_joules(self, level: MemoryLevelName, num_bytes: int) -> float:
        """Energy to move ``num_bytes`` into or out of the given level."""
        if num_bytes < 0:
            raise ConfigurationError("byte count must be non-negative")
        pj_per_byte = self.memory.level(level).access_energy_pj_per_byte
        return num_bytes * pj_per_byte * 1e-12
