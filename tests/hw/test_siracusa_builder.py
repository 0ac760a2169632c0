"""Every Siracusa variant: the presets and the design points agree.

The registered presets and :func:`repro.dse.materialise` build their
platforms through :func:`repro.hw.presets.siracusa_variant`, and the
presets' field values are pinned here, link names aside.
"""

from __future__ import annotations

import dataclasses
import enum
import inspect

import pytest

from repro.dse import materialise
from repro.hw import ChipToChipLink, ClusterModel, MultiChipPlatform
from repro.hw.presets import get_platform_preset, siracusa_platform, siracusa_variant

#: The registered presets, in the column order of :data:`PRESET_FIELDS`.
PRESETS = (
    "siracusa-mipi",
    "siracusa-fast-link",
    "siracusa-big-l2",
    "siracusa-low-power",
)

#: Field path -> its value on each preset of :data:`PRESETS`; the link's
#: name is left out.
PRESET_FIELDS = {
    "chip.name": ("siracusa", "siracusa", "siracusa", "siracusa"),
    "chip.cluster.num_cores": (8, 8, 8, 8),
    "chip.cluster.frequency_hz": (500000000.0, 500000000.0, 500000000.0, 300000000.0),
    "chip.cluster.macs_per_core_per_cycle": (2.0, 2.0, 2.0, 2.0),
    "chip.cluster.power_per_core_w": (0.013, 0.013, 0.013, 0.007),
    "chip.cluster.l1_bytes_per_core_per_cycle": (4.0, 4.0, 4.0, 4.0),
    "chip.memory.l1.name": ("L1", "L1", "L1", "L1"),
    "chip.memory.l1.size_bytes": (262144, 262144, 262144, 262144),
    "chip.memory.l1.access_energy_pj_per_byte": (0.0, 0.0, 0.0, 0.0),
    "chip.memory.l1.num_banks": (16, 16, 16, 16),
    "chip.memory.l2.name": ("L2", "L2", "L2", "L2"),
    "chip.memory.l2.size_bytes": (2097152, 2097152, 4194304, 2097152),
    "chip.memory.l2.access_energy_pj_per_byte": (2.0, 2.0, 2.0, 2.0),
    "chip.memory.l2.num_banks": (1, 1, 1, 1),
    "chip.memory.l3.name": ("L3", "L3", "L3", "L3"),
    "chip.memory.l3.size_bytes": (134217728, 134217728, 134217728, 134217728),
    "chip.memory.l3.access_energy_pj_per_byte": (100.0, 100.0, 100.0, 100.0),
    "chip.memory.l3.num_banks": (1, 1, 1, 1),
    "chip.dma.l2_l1.name": ("L2<->L1", "L2<->L1", "L2<->L1", "L2<->L1"),
    "chip.dma.l2_l1.bytes_per_cycle": (8.0, 8.0, 8.0, 8.0),
    "chip.dma.l2_l1.setup_cycles": (32, 32, 32, 32),
    "chip.dma.l3_l2.name": ("L3<->L2", "L3<->L2", "L3<->L2", "L3<->L2"),
    "chip.dma.l3_l2.bytes_per_cycle": (0.75, 0.75, 0.75, 0.75),
    "chip.dma.l3_l2.setup_cycles": (512, 512, 512, 512),
    "chip.l2_runtime_reserve_bytes": (507904, 507904, 507904, 507904),
    "link.bandwidth_bytes_per_s": (500000000.0, 2000000000.0, 500000000.0, 500000000.0),
    "link.energy_pj_per_byte": (100.0, 100.0, 100.0, 100.0),
    "link.latency_cycles": (1000, 1000, 1000, 1000),
    "group_size": (4, 4, 4, 4),
}


def _fields(obj, prefix=""):
    """``{dotted field path: (type, value)}`` of a nested dataclass."""
    out = {}
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        path = prefix + field.name
        if dataclasses.is_dataclass(value):
            out.update(_fields(value, path + "."))
        else:
            if isinstance(value, enum.Enum):
                value = value.value
            out[path] = (type(value), value)
    return out


@pytest.mark.parametrize("num_chips", [1, 4, 8, 64])
@pytest.mark.parametrize("column,name", list(enumerate(PRESETS)))
def test_preset_field_values(column, name, num_chips):
    built = _fields(get_platform_preset(name).build(num_chips))
    assert built.pop("num_chips") == (int, num_chips)
    built.pop("link.name")
    expected = {
        path: (type(values[column]), values[column])
        for path, values in PRESET_FIELDS.items()
    }
    assert built == expected


@pytest.mark.parametrize("num_chips", [1, 4, 8, 64])
@pytest.mark.parametrize(
    "name,point",
    [
        ("siracusa-mipi", {}),
        ("siracusa-big-l2", {"l2_kib": 4096}),
        ("siracusa-fast-link", {"link_gbps": 2.0}),
    ],
)
def test_a_design_point_is_the_preset_it_names(name, point, num_chips):
    design = materialise({"chips": num_chips, **point})
    assert design.platform == get_platform_preset(name).build(num_chips)


@pytest.mark.parametrize("num_chips", [1, 4, 8, 64])
def test_the_paper_platform_is_shared_per_chip_count(num_chips):
    assert siracusa_platform(num_chips) is siracusa_platform(num_chips)


def test_equal_values_share_one_chip_and_link_but_not_the_platform():
    point = {"chips": 4, "l2_kib": 4096, "link_gbps": 2.0}
    first, second = materialise(point).platform, materialise(point).platform
    assert first is not second
    assert first.chip is second.chip
    assert first.link is second.link
    big_l2 = get_platform_preset("siracusa-big-l2").build(8)
    fast_link = get_platform_preset("siracusa-fast-link").build(8)
    assert first.chip is big_l2.chip
    assert first.link is fast_link.link
    assert siracusa_variant(8, cores=8, freq_mhz=500.0).chip is siracusa_platform(1).chip


def test_a_value_keeps_the_type_it_was_given():
    # Equal values of another type build their own chip and link, whatever
    # the order of the calls.
    as_float = siracusa_variant(2, cores=3.0, link_pj_per_byte=7)
    as_int = siracusa_variant(2, cores=3, link_pj_per_byte=7.0)
    assert type(as_float.chip.cluster.num_cores) is float
    assert type(as_int.chip.cluster.num_cores) is int
    assert type(as_float.link.energy_pj_per_byte) is int
    assert type(as_int.link.energy_pj_per_byte) is float


def test_the_hardware_models_hold_no_paper_number():
    for model in (ClusterModel, ChipToChipLink, MultiChipPlatform):
        defaults = [
            field.name
            for field in dataclasses.fields(model)
            if field.default is not dataclasses.MISSING
        ]
        assert defaults == [], model
    assert list(inspect.signature(siracusa_platform).parameters) == ["num_chips"]
