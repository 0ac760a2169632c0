"""Unit tests for the distributed numerical execution of a block."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.partition import partition_block
from repro.errors import PartitioningError
from repro.graph.ops import ActivationKind
from repro.graph.transformer import FfnKind, TransformerConfig
from repro.numerics.distributed import DistributedBlock, scatter_weights
from repro.numerics.reference import BlockWeights, ReferenceBlock
from repro.numerics.verify import verify_partition_equivalence
from repro.models import mobilebert, tinyllama_42m


def tiny_config(**overrides) -> TransformerConfig:
    defaults = dict(
        name="numerics-test",
        embed_dim=32,
        ffn_dim=64,
        num_heads=4,
        num_layers=1,
        vocab_size=100,
    )
    defaults.update(overrides)
    return TransformerConfig(**defaults)


class TestScatterWeights:
    def test_slices_cover_matrices_exactly(self):
        config = tiny_config()
        weights = BlockWeights.random(config)
        partition = partition_block(config, 4)
        slices = scatter_weights(weights, partition)

        reassembled_query = np.concatenate(
            [slices[i].w_query for i in range(4)], axis=1
        )
        np.testing.assert_array_equal(reassembled_query, weights.w_query)
        reassembled_output = np.concatenate(
            [slices[i].w_output for i in range(4)], axis=0
        )
        np.testing.assert_array_equal(reassembled_output, weights.w_output)
        reassembled_down = np.concatenate(
            [slices[i].w_ffn_down for i in range(4)], axis=0
        )
        np.testing.assert_array_equal(reassembled_down, weights.w_ffn_down)

    def test_no_parameter_duplicated_or_lost(self):
        config = tiny_config()
        weights = BlockWeights.random(config)
        block = DistributedBlock.from_num_chips(weights, 4)
        assert block.total_scattered_parameters() == (
            config.attention_weight_params + config.ffn_weight_params
        )

    def test_gated_ffn_gate_is_sliced_too(self):
        config = tiny_config(ffn_kind=FfnKind.GATED, activation=ActivationKind.SILU)
        weights = BlockWeights.random(config)
        partition = partition_block(config, 2)
        slices = scatter_weights(weights, partition)
        assert slices[0].w_ffn_gate.shape == (32, 32)


class TestDistributedForward:
    @pytest.mark.parametrize("num_chips", [1, 2, 4])
    def test_matches_reference(self, num_chips):
        config = tiny_config()
        weights = BlockWeights.random(config, seed=1)
        x = np.random.default_rng(2).standard_normal((5, config.embed_dim))
        reference = ReferenceBlock(weights).forward(x)
        distributed = DistributedBlock.from_num_chips(weights, num_chips).forward(x)
        np.testing.assert_allclose(distributed, reference, atol=1e-10)

    def test_gated_ffn_matches_reference(self):
        config = tiny_config(ffn_kind=FfnKind.GATED, activation=ActivationKind.SILU)
        weights = BlockWeights.random(config, seed=3)
        x = np.random.default_rng(4).standard_normal((3, config.embed_dim))
        reference = ReferenceBlock(weights).forward(x)
        distributed = DistributedBlock.from_num_chips(weights, 4).forward(x)
        np.testing.assert_allclose(distributed, reference, atol=1e-10)

    def test_uneven_head_distribution_matches_reference(self):
        config = tiny_config()  # 4 heads over 3 chips -> 2/1/1
        weights = BlockWeights.random(config, seed=5)
        x = np.random.default_rng(6).standard_normal((4, config.embed_dim))
        reference = ReferenceBlock(weights).forward(x)
        distributed = DistributedBlock.from_num_chips(weights, 3).forward(x)
        np.testing.assert_allclose(distributed, reference, atol=1e-10)

    def test_partial_outputs_have_full_embedding_width(self):
        config = tiny_config()
        weights = BlockWeights.random(config)
        block = DistributedBlock.from_num_chips(weights, 4)
        x = np.random.default_rng(7).standard_normal((5, config.embed_dim))
        partial = block.partial_attention(2, x)
        assert partial.shape == (5, config.embed_dim)

    def test_hierarchical_reduce_requires_all_chips(self):
        config = tiny_config()
        weights = BlockWeights.random(config)
        block = DistributedBlock.from_num_chips(weights, 4)
        with pytest.raises(PartitioningError):
            block.hierarchical_reduce({0: np.zeros((1, 32))})

    def test_mismatched_weights_and_partition_rejected(self):
        weights = BlockWeights.random(tiny_config())
        partition = partition_block(tiny_config(embed_dim=64, ffn_dim=64), 2)
        with pytest.raises(PartitioningError):
            DistributedBlock(weights=weights, partition=partition)


class TestVerifyEquivalence:
    def test_paper_models_are_exactly_partitionable(self):
        for config, chips in ((tinyllama_42m(), 8), (mobilebert(), 4)):
            report = verify_partition_equivalence(config, chips, rows=3, seed=0)
            assert report.weights_scattered_exactly_once
            assert report.max_abs_error < 1e-9
            assert report.mean_abs_error <= report.max_abs_error
            assert report.is_equivalent()

    def test_invalid_rows_rejected(self):
        from repro.errors import AnalysisError

        with pytest.raises(AnalysisError):
            verify_partition_equivalence(tiny_config(), 2, rows=0)
