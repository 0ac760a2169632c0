"""Unit tests for the memory hierarchy models."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.hw.memory import MemoryHierarchy, MemoryLevel, MemoryLevelName
from repro.hw.presets import siracusa_memory
from repro.units import kib, mib


class TestMemoryLevel:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            MemoryLevel(MemoryLevelName.L1, 0, 0.0)
        with pytest.raises(ConfigurationError):
            MemoryLevel(MemoryLevelName.L1, 1024, -1.0)
        with pytest.raises(ConfigurationError):
            MemoryLevel(MemoryLevelName.L1, 1024, 0.0, num_banks=0)


class TestMemoryHierarchy:
    def test_siracusa_preset_matches_paper(self):
        memory = siracusa_memory()
        assert memory.l1.size_bytes == kib(256)
        assert memory.l2.size_bytes == mib(2)
        assert memory.l2.access_energy_pj_per_byte == 2.0
        assert memory.l3.access_energy_pj_per_byte == 100.0
        assert memory.l1.num_banks == 16

    def test_misplaced_level_rejected(self):
        l1 = MemoryLevel(MemoryLevelName.L1, kib(256), 0.0)
        l2 = MemoryLevel(MemoryLevelName.L2, mib(2), 2.0)
        l3 = MemoryLevel(MemoryLevelName.L3, mib(64), 100.0)
        with pytest.raises(ConfigurationError):
            MemoryHierarchy(l1=l2, l2=l1, l3=l3)
