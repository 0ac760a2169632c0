"""Unit tests for workload descriptions."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.graph.transformer import InferenceMode
from repro.graph.workload import Workload, autoregressive, encoder, prompt
from repro.models import mobilebert, tinyllama_42m


class TestAutoregressive:
    def test_shape_queries(self):
        workload = autoregressive(tinyllama_42m(), 128)
        assert workload.mode is InferenceMode.AUTOREGRESSIVE
        assert workload.query_rows == 1
        assert workload.new_kv_rows == 1
        assert workload.attended_positions == 128
        assert workload.kv_cache_positions == 128
        assert workload.uses_kv_cache
        assert workload.is_memory_bound_mode

    def test_default_name(self):
        workload = autoregressive(tinyllama_42m(), 128)
        assert workload.name == "tinyllama-42m/autoregressive"


class TestPrompt:
    def test_shape_queries(self):
        workload = prompt(tinyllama_42m(), 16)
        assert workload.query_rows == 16
        assert workload.new_kv_rows == 16
        assert workload.attended_positions == 16
        assert workload.uses_kv_cache
        assert not workload.is_memory_bound_mode


class TestEncoder:
    def test_shape_queries(self):
        workload = encoder(mobilebert(), 268)
        assert workload.query_rows == 268
        assert workload.attended_positions == 268
        assert not workload.uses_kv_cache
        assert workload.kv_cache_positions == 0


class TestValidation:
    def test_non_positive_seq_len_rejected(self):
        with pytest.raises(ConfigurationError):
            autoregressive(tinyllama_42m(), 0)
        with pytest.raises(ConfigurationError):
            prompt(tinyllama_42m(), -4)

    def test_custom_name_preserved(self):
        workload = Workload(
            config=tinyllama_42m(),
            mode=InferenceMode.PROMPT,
            seq_len=16,
            name="my-workload",
        )
        assert workload.name == "my-workload"

    def test_describe_mentions_dimensions(self):
        text = autoregressive(tinyllama_42m(), 128).describe()
        assert "E=512" in text and "S=128" in text and "autoregressive" in text
