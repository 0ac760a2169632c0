"""Unit tests for the shipped model zoo: one document per registered model."""

from __future__ import annotations

import pytest

from repro.arch import ArchSpec, build_model
from repro.arch.zoo import SHIPPED_DIR, shipped_spec
from repro.models import get_model, list_models
from repro.spec import loads

#: Shipped file stems, by registry name.
STEMS = {path.stem.replace("_", "-"): path.stem for path in SHIPPED_DIR.glob("*.json")}

#: Every registered name: the shipped models plus the ``tinyllama`` alias.
NAMES = sorted([*STEMS, "tinyllama"])

#: Registry name -> (model name, embed_dim, ffn_dim, num_heads, kv_heads,
#: head_dim, num_layers).
SHAPES = {
    "encdec-small": ("encdec-small", 512, 2048, 8, 8, 64, 6),
    "gqa-1b": ("gqa-1b", 2048, 5632, 32, 4, 64, 22),
    "gqa-moe-tiny": ("gqa-moe-tiny", 512, 1024, 8, 2, 64, 6),
    "longctx-4k": ("longctx-4k", 512, 2048, 8, 8, 64, 8),
    "mobilebert": ("mobilebert", 512, 512, 4, 4, 128, 24),
    "moe-8x": ("moe-8x", 512, 2048, 8, 8, 64, 8),
    "mqa-270m": ("mqa-270m", 1024, 2816, 16, 1, 64, 22),
    "tinyllama": ("tinyllama-42m", 512, 2048, 8, 8, 64, 8),
    "tinyllama-42m": ("tinyllama-42m", 512, 2048, 8, 8, 64, 8),
    "tinyllama-42m-64h": ("tinyllama-42m-64h", 512, 2048, 64, 64, 8, 8),
    "tinyllama-42m-gated": ("tinyllama-42m-gated-1376", 512, 1376, 8, 8, 64, 8),
}


class TestZooEntries:
    def test_every_entry_is_registered(self):
        names = list_models()
        for name in STEMS:
            assert name in names

    def test_gqa_1b_shape(self):
        config = get_model("gqa-1b")
        assert config.num_heads == 32
        assert config.kv_heads == 4
        assert 1.0e9 < config.total_params < 1.1e9

    def test_mqa_270m_is_multi_query(self):
        config = get_model("mqa-270m")
        assert config.kv_heads == 1
        assert 2.5e8 < config.total_params < 2.9e8

    def test_moe_8x_routes_top2_of_8(self):
        config = get_model("moe-8x")
        assert config.is_moe
        assert config.num_experts == 8
        assert config.moe_top_k == 2

    def test_longctx_4k_window_and_quantised_cache(self):
        config = get_model("longctx-4k")
        assert config.attention_window == 1024
        assert config.kv_dtype.name == "int8"

    def test_gqa_moe_tiny_combines_both_dimensions(self):
        config = get_model("gqa-moe-tiny")
        assert config.kv_heads < config.num_heads
        assert config.is_moe

    def test_encdec_decoder_carries_cross_attention(self):
        config = get_model("encdec-small")
        assert config.cross_attention
        encoder = build_model(shipped_spec("encdec_small"), stack="encoder")
        assert encoder.name == "encdec-small.encoder"

    @pytest.mark.parametrize("name", NAMES)
    def test_shape(self, name):
        config = get_model(name)
        shape = (
            config.name,
            config.embed_dim,
            config.ffn_dim,
            config.num_heads,
            config.kv_heads,
            config.head_dim,
            config.num_layers,
        )
        assert shape == SHAPES[name]


class TestRegistryFreshness:
    @pytest.mark.parametrize("name", NAMES)
    def test_lookup_returns_fresh_but_equal_configs(self, name):
        first = get_model(name)
        second = get_model(name)
        assert first == second
        assert first is not second


class TestCommittedSpecs:
    def test_directory_covers_the_zoo_exactly(self):
        assert list_models() == NAMES
        assert sorted(SHAPES) == NAMES

    @pytest.mark.parametrize("name", sorted(STEMS))
    def test_committed_json_is_canonical(self, name):
        path = SHIPPED_DIR / f"{STEMS[name]}.json"
        text = path.read_text()
        assert loads(text).to_json() == text, (
            f"{path} is not canonical; rewrite it as loads(text).to_json()"
        )

    @pytest.mark.parametrize("name", sorted(STEMS))
    def test_committed_json_loads_validates_and_builds(self, name):
        spec = loads((SHIPPED_DIR / f"{STEMS[name]}.json").read_text())
        assert isinstance(spec, ArchSpec)
        spec.validate()
        assert spec.build() == get_model(name)
