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

Each value is written once, here.  Every platform of this package is the
paper's with a few values changed, and :func:`siracusa_variant` builds
them all: the registered presets and the design points of
:func:`repro.dse.materialise`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Tuple

from ..errors import UnknownPlatformPresetError
from ..registry import Registry, require_name
from ..units import gigabytes_per_second, kib, megahertz, mib
from .chip import ChipModel
from .cluster import ClusterModel
from .dma import DmaChannelModel, DmaModel
from .interconnect import ChipToChipLink
from .memory import MemoryHierarchy, MemoryLevel, MemoryLevelName
from .platform import MultiChipPlatform

#: L1 capacity of one Siracusa chip.
SIRACUSA_L1_BYTES = kib(256)

#: L2 capacity of one Siracusa chip, in KiB.
SIRACUSA_L2_KIB = 2048

#: L2 capacity of one Siracusa chip.
SIRACUSA_L2_BYTES = kib(SIRACUSA_L2_KIB)

#: Modelled capacity of the off-chip memory (large enough for any model here).
SIRACUSA_L3_BYTES = mib(128)

#: L2 access energy used by the paper's analytical energy model.
SIRACUSA_L2_ENERGY_PJ_PER_BYTE = 2.0

#: L3 access energy used by the paper's analytical energy model.
SIRACUSA_L3_ENERGY_PJ_PER_BYTE = 100.0

#: Cluster clock frequency, in MHz.
SIRACUSA_FREQUENCY_MHZ = 500

#: Cluster clock frequency.
SIRACUSA_FREQUENCY_HZ = megahertz(SIRACUSA_FREQUENCY_MHZ)

#: Number of cluster cores.
SIRACUSA_NUM_CORES = 8

#: Average power of one cluster core.
SIRACUSA_CORE_POWER_W = 13e-3

#: Peak int8 MACs per core per cycle (SIMD dot-product extensions).
SIRACUSA_MACS_PER_CORE_PER_CYCLE = 2.0

#: L1 load bandwidth of one core: its 32-bit port into the 16-bank TCDM.
SIRACUSA_L1_BYTES_PER_CORE_PER_CYCLE = 4.0

#: Cluster-DMA bandwidth between L2 and L1 (64-bit AXI).
SIRACUSA_L2_L1_BYTES_PER_CYCLE = 8.0

#: Calibrated off-chip interface bandwidth (bytes per cluster cycle).
SIRACUSA_L3_L2_BYTES_PER_CYCLE = 0.75

#: Calibrated per-transaction setup cost of the off-chip interface.
SIRACUSA_L3_SETUP_CYCLES = 512

#: Calibrated L2 runtime reserve (code, stacks, scratch buffers).
SIRACUSA_L2_RUNTIME_RESERVE_BYTES = kib(496)

#: MIPI chip-to-chip bandwidth, in GB/s.
MIPI_BANDWIDTH_GBPS = 0.5

#: MIPI chip-to-chip bandwidth.
MIPI_BANDWIDTH_BYTES_PER_S = gigabytes_per_second(MIPI_BANDWIDTH_GBPS)

#: MIPI chip-to-chip energy per byte.
MIPI_ENERGY_PJ_PER_BYTE = 100.0

#: Assumed per-message latency of a MIPI transfer in cluster cycles
#: (framing and handshake; 2 us at 500 MHz); the paper publishes none.
MIPI_LATENCY_CYCLES = 1000

#: Hierarchical-collective group size.
SIRACUSA_GROUP_SIZE = 4


# Typed caches: an int value and an equal float make two objects, so no
# call can hand the paper's platform a field of another type.
@lru_cache(maxsize=256, typed=True)
def _chip(
    cores: int, frequency_hz: float, core_power_w: float, l2_bytes: int
) -> ChipModel:
    """A Siracusa chip with these values; equal values share one chip."""
    return ChipModel(
        name="siracusa",
        cluster=ClusterModel(
            num_cores=cores,
            frequency_hz=frequency_hz,
            macs_per_core_per_cycle=SIRACUSA_MACS_PER_CORE_PER_CYCLE,
            power_per_core_w=core_power_w,
            l1_bytes_per_core_per_cycle=SIRACUSA_L1_BYTES_PER_CORE_PER_CYCLE,
        ),
        memory=MemoryHierarchy(
            l1=MemoryLevel(MemoryLevelName.L1, SIRACUSA_L1_BYTES, 0.0, num_banks=16),
            l2=MemoryLevel(
                MemoryLevelName.L2, l2_bytes, SIRACUSA_L2_ENERGY_PJ_PER_BYTE
            ),
            l3=MemoryLevel(
                MemoryLevelName.L3, SIRACUSA_L3_BYTES, SIRACUSA_L3_ENERGY_PJ_PER_BYTE
            ),
        ),
        dma=DmaModel(
            l2_l1=DmaChannelModel("L2<->L1", SIRACUSA_L2_L1_BYTES_PER_CYCLE, 32),
            l3_l2=DmaChannelModel(
                "L3<->L2", SIRACUSA_L3_L2_BYTES_PER_CYCLE, SIRACUSA_L3_SETUP_CYCLES
            ),
        ),
        # The calibrated reserve, clamped so any L2 size leaves at least
        # half the scratchpad for model data.
        l2_runtime_reserve_bytes=min(SIRACUSA_L2_RUNTIME_RESERVE_BYTES, l2_bytes // 2),
    )


@lru_cache(maxsize=256, typed=True)
def _mipi(bandwidth_bytes_per_s: float, energy_pj_per_byte: float) -> ChipToChipLink:
    """A MIPI link with these values; equal values share one link."""
    return ChipToChipLink(
        name="MIPI",
        bandwidth_bytes_per_s=bandwidth_bytes_per_s,
        energy_pj_per_byte=energy_pj_per_byte,
        latency_cycles=MIPI_LATENCY_CYCLES,
    )


def siracusa_variant(
    num_chips: int,
    *,
    cores: int = SIRACUSA_NUM_CORES,
    freq_mhz: float = SIRACUSA_FREQUENCY_MHZ,
    core_power_w: float = SIRACUSA_CORE_POWER_W,
    l2_kib: int = SIRACUSA_L2_KIB,
    link_gbps: float = MIPI_BANDWIDTH_GBPS,
    link_pj_per_byte: float = MIPI_ENERGY_PJ_PER_BYTE,
    group_size: int = SIRACUSA_GROUP_SIZE,
) -> MultiChipPlatform:
    """The paper's platform of ``num_chips`` chips with some values changed.

    Every value not given keeps the paper's.  The L2 runtime reserve
    follows the L2 size: the calibrated 496 KiB, at most half the L2.
    Equal values share one chip and one link object, so their memoised
    content hashes serve every platform built around them; the platform
    itself is new on every call.

    Raises:
        ConfigurationError: If a value is out of its model's range; the
            chip's values are checked before the link's, and those before
            the chip count and group size.
    """
    return MultiChipPlatform(
        chip=_chip(cores, megahertz(freq_mhz), core_power_w, kib(l2_kib)),
        num_chips=num_chips,
        link=_mipi(gigabytes_per_second(link_gbps), link_pj_per_byte),
        group_size=group_size,
    )


@lru_cache(maxsize=None)
def siracusa_platform(num_chips: int) -> MultiChipPlatform:
    """The paper's system of ``num_chips`` Siracusa chips joined by MIPI links.

    Platforms are immutable, so each chip count shares one memoised
    instance; that keeps the per-instance content-hash memo of
    :mod:`repro.api.session` warm across every sweep and serving run of
    the process.
    """
    return siracusa_variant(num_chips)


def siracusa_chip() -> ChipModel:
    """One Siracusa-like chip with the paper's published parameters."""
    return siracusa_platform(1).chip


def siracusa_cluster() -> ClusterModel:
    """The octa-core compute cluster of one Siracusa chip."""
    return siracusa_chip().cluster


def siracusa_memory() -> MemoryHierarchy:
    """The memory hierarchy of one Siracusa chip."""
    return siracusa_chip().memory


def siracusa_dma() -> DmaModel:
    """The DMA channel models of one Siracusa chip."""
    return siracusa_chip().dma


def mipi_link() -> ChipToChipLink:
    """The MIPI chip-to-chip link used by the paper."""
    return siracusa_platform(1).link


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
# The what-if variants below are hypothetical configurations for
# sensitivity and heterogeneous-fleet studies, not published ones.
register_platform_preset(
    PlatformPreset(
        name="siracusa-fast-link",
        description="What-if variant: 2 GB/s chip-to-chip links",
        factory=partial(siracusa_variant, link_gbps=2.0),
    )
)
# Doubling the scratchpad (same runtime reserve) moves the on-chip
# weight-residency crossover to lower chip counts.
register_platform_preset(
    PlatformPreset(
        name="siracusa-big-l2",
        description="What-if variant: 4 MiB L2 per chip",
        factory=partial(siracusa_variant, l2_kib=4096),
    )
)
# An efficiency-tier chip: the cluster trades 40% of its clock for
# roughly half the core power.
register_platform_preset(
    PlatformPreset(
        name="siracusa-low-power",
        description="What-if variant: 300 MHz cluster at 7 mW per core",
        factory=partial(siracusa_variant, freq_mhz=300, core_power_w=7e-3),
    )
)
