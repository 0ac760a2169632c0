"""Unit tests for the chip and multi-chip platform models."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.hw.memory import MemoryLevelName
from repro.hw.platform import MultiChipPlatform
from repro.hw.presets import (
    SIRACUSA_L2_RUNTIME_RESERVE_BYTES,
    siracusa_chip,
    siracusa_platform,
)
from repro.units import kib, mib


class TestChipModel:
    def test_l2_available_subtracts_reserve(self):
        chip = siracusa_chip()
        assert chip.l2_available_bytes == mib(2) - SIRACUSA_L2_RUNTIME_RESERVE_BYTES

    def test_custom_reserve(self):
        chip = siracusa_chip(l2_runtime_reserve_bytes=kib(128))
        assert chip.l2_available_bytes == mib(2) - kib(128)

    def test_reserve_cannot_exceed_l2(self):
        with pytest.raises(ConfigurationError):
            siracusa_chip(l2_runtime_reserve_bytes=mib(2))

    def test_access_energy(self):
        chip = siracusa_chip()
        assert chip.access_energy_joules(MemoryLevelName.L3, 1000) == pytest.approx(1e-7)
        assert chip.access_energy_joules(MemoryLevelName.L2, 1000) == pytest.approx(2e-9)
        with pytest.raises(ConfigurationError):
            chip.access_energy_joules(MemoryLevelName.L2, -1)


class TestMultiChipPlatform:
    def test_basic_structure(self):
        platform = siracusa_platform(8)
        assert platform.num_chips == 8
        assert platform.chip_ids() == list(range(8))
        assert platform.root_chip_id == 0
        assert not platform.is_single_chip

    def test_single_chip(self):
        platform = siracusa_platform(1)
        assert platform.is_single_chip
        assert platform.num_tree_levels == 0

    @pytest.mark.parametrize("num_chips,levels", [
        (2, 1), (4, 1), (5, 2), (8, 2), (16, 2), (17, 3), (64, 3),
    ])
    def test_tree_depth(self, num_chips, levels):
        assert siracusa_platform(num_chips).num_tree_levels == levels

    def test_group_membership(self):
        platform = siracusa_platform(8)
        assert platform.group_of(0) == 0
        assert platform.group_of(3) == 0
        assert platform.group_of(4) == 1
        assert platform.group_leader(5) == 4
        assert platform.group_leader(3) == 0
        assert platform.group_leader(7, level=1) == 0

    def test_group_queries_validate_chip_id(self):
        platform = siracusa_platform(4)
        with pytest.raises(ConfigurationError):
            platform.group_of(4)
        with pytest.raises(ConfigurationError):
            platform.group_leader(-1)

    def test_aggregate_capacities(self):
        platform = siracusa_platform(8)
        assert platform.aggregate_l2_bytes == 8 * mib(2)
        assert platform.aggregate_on_chip_bytes == 8 * (mib(2) + kib(256))

    def test_with_num_chips_preserves_models(self):
        platform = siracusa_platform(8)
        smaller = platform.with_num_chips(2)
        assert smaller.num_chips == 2
        assert smaller.chip == platform.chip
        assert smaller.link == platform.link

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ConfigurationError):
            siracusa_platform(0)
        with pytest.raises(ConfigurationError):
            MultiChipPlatform(
                chip=siracusa_chip(),
                num_chips=4,
                link=siracusa_platform(1).link,
                group_size=1,
            )

    def test_frequency_matches_cluster(self):
        platform = siracusa_platform(2)
        assert platform.frequency_hz == platform.chip.cluster.frequency_hz
