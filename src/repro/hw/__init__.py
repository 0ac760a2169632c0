"""Hardware models: chips, memories, DMA engines, links, and platforms."""

from .chip import ChipModel
from .cluster import ClusterModel
from .dma import DmaChannelModel, DmaModel
from .interconnect import ChipToChipLink, mipi_link
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
    register_platform_preset,
    siracusa_big_l2_platform,
    siracusa_chip,
    siracusa_cluster,
    siracusa_dma,
    siracusa_fast_link_platform,
    siracusa_memory,
    siracusa_platform,
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
    "siracusa_big_l2_platform",
    "siracusa_chip",
    "siracusa_cluster",
    "siracusa_dma",
    "siracusa_fast_link_platform",
    "siracusa_memory",
    "siracusa_platform",
]
