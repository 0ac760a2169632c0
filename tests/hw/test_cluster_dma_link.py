"""Unit tests for the cluster, DMA, and chip-to-chip link cost models."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.hw.dma import DmaChannelModel
from repro.hw.presets import mipi_link, siracusa_cluster, siracusa_dma


class TestClusterModel:
    def test_siracusa_values(self):
        cluster = siracusa_cluster()
        assert cluster.num_cores == 8
        assert cluster.frequency_hz == 500e6
        assert cluster.power_w == pytest.approx(8 * 13e-3)
        assert cluster.peak_macs_per_cycle == pytest.approx(16.0)

    @pytest.mark.parametrize("field,value", [
        ("num_cores", 0),
        ("frequency_hz", 0),
        ("frequency_hz", float("inf")),
        ("frequency_hz", float("nan")),
        ("macs_per_core_per_cycle", 0),
        ("power_per_core_w", -1),
        ("l1_bytes_per_core_per_cycle", 0),
    ])
    def test_invalid_parameters_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            replace(siracusa_cluster(), **{field: value})


class TestDmaChannelModel:
    def test_transfer_cycles_bandwidth_only(self):
        channel = DmaChannelModel("test", bytes_per_cycle=8.0)
        assert channel.transfer_cycles(8000) == pytest.approx(1000.0)

    def test_setup_cost_per_transfer(self):
        channel = DmaChannelModel("test", bytes_per_cycle=1.0, setup_cycles=100)
        assert channel.transfer_cycles(1000, num_transfers=4) == pytest.approx(1400.0)

    def test_zero_bytes_is_free(self):
        channel = DmaChannelModel("test", bytes_per_cycle=1.0, setup_cycles=100)
        assert channel.transfer_cycles(0) == 0.0

    def test_negative_size_rejected(self):
        channel = DmaChannelModel("test", bytes_per_cycle=1.0)
        with pytest.raises(ConfigurationError):
            channel.transfer_cycles(-1)

    def test_siracusa_pair(self):
        dma = siracusa_dma()
        assert dma.l2_l1.bytes_per_cycle > dma.l3_l2.bytes_per_cycle
        assert dma.l3_l2.setup_cycles > dma.l2_l1.setup_cycles


class TestChipToChipLink:
    def test_paper_parameters(self):
        link = mipi_link()
        assert link.bandwidth_bytes_per_s == pytest.approx(0.5e9)
        assert link.energy_pj_per_byte == 100.0

    def test_bytes_per_cycle_at_cluster_clock(self):
        link = mipi_link()
        assert link.bytes_per_cycle(500e6) == pytest.approx(1.0)

    def test_transfer_cycles_include_latency(self):
        link = replace(mipi_link(), latency_cycles=1000)
        cycles = link.transfer_cycles(512, 500e6)
        assert cycles == pytest.approx(1000 + 512)

    def test_zero_bytes_is_free(self):
        assert mipi_link().transfer_cycles(0, 500e6) == 0.0

    def test_transfer_energy_per_paper(self):
        link = mipi_link()
        # 100 pJ/B x 1 MiB is about 0.105 mJ.
        assert link.transfer_energy_joules(2**20) == pytest.approx(1048576 * 100e-12)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            replace(mipi_link(), bandwidth_bytes_per_s=0)
        with pytest.raises(ConfigurationError):
            replace(mipi_link(), energy_pj_per_byte=-1)
        with pytest.raises(ConfigurationError):
            mipi_link().transfer_cycles(-1, 500e6)
        with pytest.raises(ConfigurationError):
            mipi_link().bytes_per_cycle(0)
