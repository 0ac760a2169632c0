"""Hardware models: chips, memories, DMA engines, links, and platforms."""

from .chip import ChipModel
from .cluster import ClusterModel
from .dma import DmaChannelModel, DmaModel
from .interconnect import ChipToChipLink
from .memory import MemoryHierarchy, MemoryLevel, MemoryLevelName
from .platform import MultiChipPlatform
from .presets import (
    SIRACUSA_FREQUENCY_HZ,
    SIRACUSA_GROUP_SIZE,
    SIRACUSA_L1_BYTES,
    SIRACUSA_L2_BYTES,
    SIRACUSA_L2_RUNTIME_RESERVE_BYTES,
    PlatformPreset,
    get_platform_preset,
    list_platform_presets,
    mipi_link,
    register_platform_preset,
    siracusa_chip,
    siracusa_cluster,
    siracusa_dma,
    siracusa_memory,
    siracusa_platform,
    siracusa_variant,
)

__all__ = [
    "ChipModel",
    "ChipToChipLink",
    "ClusterModel",
    "DmaChannelModel",
    "DmaModel",
    "MemoryHierarchy",
    "MemoryLevel",
    "MemoryLevelName",
    "MultiChipPlatform",
    "PlatformPreset",
    "SIRACUSA_FREQUENCY_HZ",
    "SIRACUSA_GROUP_SIZE",
    "SIRACUSA_L1_BYTES",
    "SIRACUSA_L2_BYTES",
    "SIRACUSA_L2_RUNTIME_RESERVE_BYTES",
    "get_platform_preset",
    "list_platform_presets",
    "mipi_link",
    "register_platform_preset",
    "siracusa_chip",
    "siracusa_cluster",
    "siracusa_dma",
    "siracusa_memory",
    "siracusa_platform",
    "siracusa_variant",
]
