"""Hardware presets reproducing the paper's deployment platform.

The numbers below come from the paper's experimental setup (Sec. V-A) and
from the Siracusa publication it references:

* 8 RISC-V cluster cores at 500 MHz, 13 mW average power per core,
* 256 KiB of L1 TCDM (16 banks), 2 MiB of L2,
* L2 access energy 2 pJ/B, L3 access energy 100 pJ/B,
* MIPI chip-to-chip link: 0.5 GB/s and 100 pJ/B,
* hierarchical collectives in groups of four chips.

Two quantities are not published and are calibration knobs of this
reproduction (see "Calibrated constants" in ``docs/MODELS.md``):

* the off-chip (L3) interface bandwidth and per-transaction setup cost,
* the share of L2 reserved for the runtime (code, stacks, I/O buffers),
  which determines where the on-chip weight-residency crossover falls.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Tuple

from ..errors import UnknownPlatformPresetError
from ..registry import Registry, require_name
from ..units import gigabytes_per_second, kib, mib
from .chip import ChipModel
from .cluster import ClusterModel
from .dma import DmaChannelModel, DmaModel
from .interconnect import ChipToChipLink
from .memory import MemoryHierarchy, MemoryLevel, MemoryLevelName
from .platform import MultiChipPlatform

#: L1 capacity of one Siracusa chip.
SIRACUSA_L1_BYTES = kib(256)

#: L2 capacity of one Siracusa chip.
SIRACUSA_L2_BYTES = mib(2)

#: Modelled capacity of the off-chip memory (large enough for any model here).
SIRACUSA_L3_BYTES = mib(128)

#: L2 access energy used by the paper's analytical energy model.
SIRACUSA_L2_ENERGY_PJ_PER_BYTE = 2.0

#: L3 access energy used by the paper's analytical energy model.
SIRACUSA_L3_ENERGY_PJ_PER_BYTE = 100.0

#: Cluster clock frequency.
SIRACUSA_FREQUENCY_HZ = 500e6

#: Number of cluster cores.
SIRACUSA_NUM_CORES = 8

#: Average power of one cluster core.
SIRACUSA_CORE_POWER_W = 13e-3

#: Peak int8 MACs per core per cycle (SIMD dot-product extensions).
SIRACUSA_MACS_PER_CORE_PER_CYCLE = 2.0

#: Cluster-DMA bandwidth between L2 and L1 (64-bit AXI).
SIRACUSA_L2_L1_BYTES_PER_CYCLE = 8.0

#: Calibrated off-chip interface bandwidth (bytes per cluster cycle).
SIRACUSA_L3_L2_BYTES_PER_CYCLE = 0.75

#: Calibrated per-transaction setup cost of the off-chip interface.
SIRACUSA_L3_SETUP_CYCLES = 512

#: Calibrated L2 runtime reserve (code, stacks, scratch buffers).
SIRACUSA_L2_RUNTIME_RESERVE_BYTES = kib(496)

#: MIPI chip-to-chip bandwidth.
MIPI_BANDWIDTH_BYTES_PER_S = gigabytes_per_second(0.5)

#: MIPI chip-to-chip energy per byte.
MIPI_ENERGY_PJ_PER_BYTE = 100.0

#: Hierarchical-collective group size.
SIRACUSA_GROUP_SIZE = 4


def siracusa_memory() -> MemoryHierarchy:
    """The memory hierarchy of one Siracusa chip."""
    return MemoryHierarchy(
        l1=MemoryLevel(
            name=MemoryLevelName.L1,
            size_bytes=SIRACUSA_L1_BYTES,
            access_energy_pj_per_byte=0.0,
            num_banks=16,
        ),
        l2=MemoryLevel(
            name=MemoryLevelName.L2,
            size_bytes=SIRACUSA_L2_BYTES,
            access_energy_pj_per_byte=SIRACUSA_L2_ENERGY_PJ_PER_BYTE,
        ),
        l3=MemoryLevel(
            name=MemoryLevelName.L3,
            size_bytes=SIRACUSA_L3_BYTES,
            access_energy_pj_per_byte=SIRACUSA_L3_ENERGY_PJ_PER_BYTE,
        ),
    )


def siracusa_cluster() -> ClusterModel:
    """The octa-core compute cluster of one Siracusa chip."""
    return ClusterModel(
        num_cores=SIRACUSA_NUM_CORES,
        frequency_hz=SIRACUSA_FREQUENCY_HZ,
        macs_per_core_per_cycle=SIRACUSA_MACS_PER_CORE_PER_CYCLE,
        power_per_core_w=SIRACUSA_CORE_POWER_W,
    )


def siracusa_dma() -> DmaModel:
    """The DMA channel models of one Siracusa chip."""
    return DmaModel(
        l2_l1=DmaChannelModel(
            name="L2<->L1",
            bytes_per_cycle=SIRACUSA_L2_L1_BYTES_PER_CYCLE,
            setup_cycles=32,
        ),
        l3_l2=DmaChannelModel(
            name="L3<->L2",
            bytes_per_cycle=SIRACUSA_L3_L2_BYTES_PER_CYCLE,
            setup_cycles=SIRACUSA_L3_SETUP_CYCLES,
        ),
    )


def siracusa_chip(
    l2_runtime_reserve_bytes: int = SIRACUSA_L2_RUNTIME_RESERVE_BYTES,
) -> ChipModel:
    """One Siracusa-like chip with the paper's published parameters."""
    return ChipModel(
        name="siracusa",
        cluster=siracusa_cluster(),
        memory=siracusa_memory(),
        dma=siracusa_dma(),
        l2_runtime_reserve_bytes=l2_runtime_reserve_bytes,
    )


def mipi_link() -> ChipToChipLink:
    """The MIPI chip-to-chip link used by the paper."""
    return ChipToChipLink(
        name="MIPI",
        bandwidth_bytes_per_s=MIPI_BANDWIDTH_BYTES_PER_S,
        energy_pj_per_byte=MIPI_ENERGY_PJ_PER_BYTE,
    )


@lru_cache(maxsize=None)
def siracusa_platform(
    num_chips: int,
    *,
    group_size: int = SIRACUSA_GROUP_SIZE,
    l2_runtime_reserve_bytes: int = SIRACUSA_L2_RUNTIME_RESERVE_BYTES,
) -> MultiChipPlatform:
    """A system of ``num_chips`` Siracusa chips joined by MIPI links.

    Platforms are immutable, so equal arguments share one memoised
    instance; that keeps the per-instance content-hash memo of
    :mod:`repro.api.session` warm across every sweep and serving run of
    the process.
    """
    return MultiChipPlatform(
        chip=siracusa_chip(l2_runtime_reserve_bytes=l2_runtime_reserve_bytes),
        num_chips=num_chips,
        link=mipi_link(),
        group_size=group_size,
    )


def siracusa_fast_link_platform(num_chips: int) -> MultiChipPlatform:
    """A what-if Siracusa system with a 2 GB/s chip-to-chip link.

    Everything except the link bandwidth matches the paper's platform;
    this is a hypothetical variant for sensitivity studies, not a
    published configuration.
    """
    return MultiChipPlatform(
        chip=siracusa_chip(),
        num_chips=num_chips,
        link=ChipToChipLink(
            name="MIPI-2G",
            bandwidth_bytes_per_s=gigabytes_per_second(2.0),
            energy_pj_per_byte=MIPI_ENERGY_PJ_PER_BYTE,
        ),
        group_size=SIRACUSA_GROUP_SIZE,
    )


def siracusa_big_l2_platform(num_chips: int) -> MultiChipPlatform:
    """A what-if Siracusa system with 4 MiB of L2 per chip.

    Doubles the scratchpad (same runtime reserve) so the on-chip
    weight-residency crossover moves to lower chip counts; a hypothetical
    variant for sensitivity studies, not a published configuration.
    """
    chip = siracusa_chip()
    memory = replace(chip.memory, l2=replace(chip.memory.l2, size_bytes=mib(4)))
    return MultiChipPlatform(
        chip=replace(chip, memory=memory),
        num_chips=num_chips,
        link=mipi_link(),
        group_size=SIRACUSA_GROUP_SIZE,
    )


def siracusa_low_power_platform(num_chips: int) -> MultiChipPlatform:
    """A what-if Siracusa system clocked down to 300 MHz at 7 mW per core.

    Same memories, DMAs, and MIPI links as the paper's platform, but the
    cluster trades 40% of its clock for roughly half the core power — a
    hypothetical efficiency-tier chip for heterogeneous fleet studies,
    not a published configuration.
    """
    chip = siracusa_chip()
    cluster = replace(
        chip.cluster, frequency_hz=300e6, power_per_core_w=7e-3
    )
    return MultiChipPlatform(
        chip=replace(chip, cluster=cluster),
        num_chips=num_chips,
        link=mipi_link(),
        group_size=SIRACUSA_GROUP_SIZE,
    )


# ----------------------------------------------------------------------
# Preset registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PlatformPreset:
    """A named, discoverable hardware configuration.

    Attributes:
        name: Registry key (``repro platforms`` lists them).
        description: One-line provenance note (paper setup vs. what-if).
        factory: Builds the platform from a chip count.
        default_chips: Chip count the paper/preset is usually quoted at.
        aliases: Alternative registry names.
    """

    name: str
    description: str
    factory: Callable[[int], MultiChipPlatform]
    default_chips: int = 8
    aliases: Tuple[str, ...] = ()

    def build(self, num_chips: int | None = None) -> MultiChipPlatform:
        """Materialise the preset (at ``default_chips`` when unspecified)."""
        return self.factory(num_chips if num_chips is not None else self.default_chips)


_PRESETS: Registry[PlatformPreset] = Registry(
    "platform preset", UnknownPlatformPresetError, "platform preset"
)


def register_platform_preset(preset: PlatformPreset) -> PlatformPreset:
    """Register a platform preset under its name and aliases.

    Returns the preset unchanged so call sites can keep a reference.

    Raises:
        ConfigurationError: If the name is missing or empty, any name is
            taken, or the aliases are not a tuple of names; the registry
            is then unchanged.
    """
    require_name(preset.name, "platform preset")
    _PRESETS.add(preset)
    return preset


#: Look up a registered platform preset by name or alias; raises
#: :class:`~repro.errors.UnknownPlatformPresetError`, listing the
#: available names, if no preset is registered under it.
get_platform_preset = _PRESETS.get

#: Sorted canonical names of all registered platform presets.
list_platform_presets = _PRESETS.names


register_platform_preset(
    PlatformPreset(
        name="siracusa-mipi",
        description="The paper's platform: Siracusa chips, 0.5 GB/s MIPI links",
        factory=siracusa_platform,
        aliases=("siracusa",),
    )
)
register_platform_preset(
    PlatformPreset(
        name="siracusa-fast-link",
        description="What-if variant: 2 GB/s chip-to-chip links",
        factory=siracusa_fast_link_platform,
    )
)
register_platform_preset(
    PlatformPreset(
        name="siracusa-big-l2",
        description="What-if variant: 4 MiB L2 per chip",
        factory=siracusa_big_l2_platform,
    )
)
register_platform_preset(
    PlatformPreset(
        name="siracusa-low-power",
        description="What-if variant: 300 MHz cluster at 7 mW per core",
        factory=siracusa_low_power_platform,
    )
)
