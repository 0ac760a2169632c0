"""Unit tests for KV-cache sizing."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.graph.kvcache import KVCacheSpec, kv_cache_for_slice
from repro.models import tinyllama_42m


class TestKVCacheSpec:
    def test_bytes_per_layer(self):
        spec = KVCacheSpec(max_positions=128, num_heads=8, head_dim=64)
        assert spec.bytes_per_layer == 2 * 128 * 8 * 64
        assert spec.total_bytes == spec.bytes_per_layer

    def test_total_bytes_scale_with_layers(self):
        spec = KVCacheSpec(max_positions=128, num_heads=1, head_dim=64, num_layers=8)
        assert spec.total_bytes == 8 * spec.bytes_per_layer

    def test_bytes_written_per_step(self):
        spec = KVCacheSpec(max_positions=128, num_heads=2, head_dim=64)
        assert spec.bytes_written_per_step() == 2 * 2 * 64
        assert spec.bytes_written_per_step(new_rows=16) == 16 * 2 * 2 * 64

    def test_bytes_written_rejects_negative_rows(self):
        spec = KVCacheSpec(max_positions=8, num_heads=1, head_dim=8)
        with pytest.raises(ConfigurationError):
            spec.bytes_written_per_step(-1)

    def test_tensors_shapes(self):
        spec = KVCacheSpec(max_positions=16, num_heads=2, head_dim=8)
        keys, values = spec.tensors(layer_index=3)
        assert keys.shape == values.shape == (16, 2, 8)
        assert "layer3" in keys.name

    def test_zero_positions_is_empty(self):
        spec = KVCacheSpec(max_positions=0, num_heads=8, head_dim=64)
        assert spec.total_bytes == 0

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ConfigurationError):
            KVCacheSpec(max_positions=-1, num_heads=1, head_dim=1)
        with pytest.raises(ConfigurationError):
            KVCacheSpec(max_positions=1, num_heads=1, head_dim=1, num_layers=0)


class TestKvCacheForSlice:
    def test_full_model_cache_size(self):
        config = tinyllama_42m()
        spec = kv_cache_for_slice(config, max_positions=128, num_heads=config.num_heads)
        # 2 (K and V) x 128 positions x 512 projection x 8 layers, int8.
        assert spec.total_bytes == 2 * 128 * 512 * 8

    def test_slice_cache_scales_with_heads(self):
        config = tinyllama_42m()
        full = kv_cache_for_slice(config, max_positions=128, num_heads=8)
        one_head = kv_cache_for_slice(config, max_positions=128, num_heads=1)
        assert one_head.total_bytes * 8 == full.total_bytes

    def test_layer_override(self):
        config = tinyllama_42m()
        spec = kv_cache_for_slice(
            config, max_positions=128, num_heads=8, num_layers=1
        )
        assert spec.total_bytes == 2 * 128 * 512
