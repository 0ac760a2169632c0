"""Unit tests for operator descriptors."""

from __future__ import annotations

import pytest

from repro.graph.dtypes import INT32
from repro.graph.ops import (
    ActivationKind,
    ActivationOp,
    AttentionMatmulOp,
    ElementwiseKind,
    ElementwiseOp,
    LinearOp,
    NormKind,
    NormOp,
    SoftmaxOp,
    total_macs,
    total_weight_bytes,
)


class TestLinearOp:
    def test_gemm_macs_and_bytes(self):
        op = LinearOp("fc", rows=16, in_features=512, out_features=2048)
        assert op.macs == 16 * 512 * 2048
        assert op.elements == 16 * 2048
        assert op.input_bytes == 16 * 512
        assert op.output_bytes == 16 * 2048
        assert not op.is_gemv

    def test_gemv_detection(self):
        assert LinearOp("fc", rows=1, in_features=8, out_features=8).is_gemv

    def test_weight_bytes_include_bias(self):
        with_bias = LinearOp("fc", rows=1, in_features=512, out_features=512)
        without_bias = LinearOp(
            "fc", rows=1, in_features=512, out_features=512, has_bias=False
        )
        assert without_bias.weight_bytes == 512 * 512
        assert with_bias.weight_bytes == 512 * 512 + 512 * INT32.size_bytes

    def test_weight_dtype_scales_weight_bytes(self):
        op = LinearOp(
            "fc", rows=1, in_features=4, out_features=4,
            weight_dtype=INT32, has_bias=False,
        )
        assert op.weight_bytes == 4 * 4 * 4

    def test_negative_dimensions_rejected(self):
        with pytest.raises(ValueError):
            LinearOp("fc", rows=-1, in_features=4, out_features=4)


class TestAttentionMatmulOp:
    def test_scores_shape_costs(self):
        op = AttentionMatmulOp("scores", rows=1, inner=64, cols=128, heads=8)
        assert op.macs == 8 * 64 * 128
        assert op.elements == 8 * 128
        assert op.weight_bytes == 0

    def test_input_bytes_cover_both_operands(self):
        op = AttentionMatmulOp("context", rows=4, inner=128, cols=64, heads=2)
        expected = 2 * (4 * 128 + 128 * 64)
        assert op.input_bytes == expected

    def test_negative_dimensions_rejected(self):
        with pytest.raises(ValueError):
            AttentionMatmulOp("scores", rows=1, inner=-64, cols=128, heads=8)


class TestRowWiseOps:
    def test_softmax_elements(self):
        op = SoftmaxOp("softmax", rows=1, cols=128, heads=8)
        assert op.elements == 8 * 128
        assert op.input_bytes == op.output_bytes == 8 * 128

    def test_norm_weight_vectors(self):
        layernorm = NormOp("ln", rows=4, cols=512, kind=NormKind.LAYERNORM)
        rmsnorm = NormOp("rms", rows=4, cols=512, kind=NormKind.RMSNORM)
        assert layernorm.weight_bytes == 2 * 512 * 4
        assert rmsnorm.weight_bytes == 512 * 4
        assert layernorm.elements == rmsnorm.elements == 4 * 512

    def test_activation_elements(self):
        op = ActivationOp("gelu", rows=16, cols=2048, kind=ActivationKind.GELU)
        assert op.elements == 16 * 2048
        assert op.macs == 0

    def test_elementwise_operand_counts(self):
        add = ElementwiseOp("add", rows=1, cols=512, kind=ElementwiseKind.ADD)
        copy = ElementwiseOp("copy", rows=1, cols=512, kind=ElementwiseKind.COPY)
        assert add.input_bytes == 2 * 512
        assert copy.input_bytes == 512
        assert add.output_bytes == copy.output_bytes == 512

    @pytest.mark.parametrize("factory", [
        lambda: SoftmaxOp("s", rows=-1, cols=4),
        lambda: NormOp("n", rows=4, cols=-4),
        lambda: ActivationOp("a", rows=-4, cols=4),
        lambda: ElementwiseOp("e", rows=4, cols=-4),
    ])
    def test_negative_dimensions_rejected(self, factory):
        with pytest.raises(ValueError):
            factory()


class TestAggregation:
    def test_totals(self):
        ops = [
            LinearOp("a", rows=1, in_features=4, out_features=4, has_bias=False),
            LinearOp("b", rows=2, in_features=4, out_features=4, has_bias=False),
            SoftmaxOp("s", rows=1, cols=4),
        ]
        assert total_macs(ops) == 16 + 32
        assert total_weight_bytes(ops) == 16 + 16

    def test_totals_of_empty_sequence(self):
        assert total_macs([]) == 0
        assert total_weight_bytes([]) == 0
