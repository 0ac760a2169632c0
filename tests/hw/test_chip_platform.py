"""Unit tests for the chip and multi-chip platform models."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
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
        chip = replace(siracusa_chip(), l2_runtime_reserve_bytes=kib(128))
        assert chip.l2_available_bytes == mib(2) - kib(128)

    def test_reserve_cannot_exceed_l2(self):
        with pytest.raises(ConfigurationError):
            replace(siracusa_chip(), l2_runtime_reserve_bytes=mib(2))


class TestMultiChipPlatform:
    def test_basic_structure(self):
        platform = siracusa_platform(8)
        assert platform.num_chips == 8
        assert platform.chip_ids() == list(range(8))
        assert platform.root_chip_id == 0

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
