"""Unit tests for the kernel cost models."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.graph.ops import (
    ActivationKind,
    ActivationOp,
    AttentionMatmulOp,
    ElementwiseKind,
    ElementwiseOp,
    LinearOp,
    NormKind,
    NormOp,
    Operator,
    SoftmaxOp,
)
from repro.hw.presets import siracusa_cluster
from repro.kernels.base import KernelCost, merge_costs
from repro.kernels.elementwise import ElementwiseModel
from repro.kernels.library import KernelLibrary
from repro.kernels.matmul import MatmulEfficiencyModel, linear_cost


@pytest.fixture
def cluster():
    return siracusa_cluster()


@pytest.fixture
def library(cluster):
    return KernelLibrary(cluster=cluster)


class TestKernelCost:
    def test_streamed_weight_bytes(self):
        cost = KernelCost("k", compute_cycles=10, l2_l1_bytes=100,
                          weight_bytes=1000, weight_passes=5)
        assert cost.streamed_weight_bytes == 5000

    def test_effective_macs_per_cycle(self):
        cost = KernelCost("k", compute_cycles=100, l2_l1_bytes=0, macs=800)
        assert cost.effective_macs_per_cycle == pytest.approx(8.0)
        zero = KernelCost("k", compute_cycles=0, l2_l1_bytes=0)
        assert zero.effective_macs_per_cycle == 0.0

    def test_invalid_costs_rejected(self):
        with pytest.raises(ValueError):
            KernelCost("k", compute_cycles=-1, l2_l1_bytes=0)
        with pytest.raises(ValueError):
            KernelCost("k", compute_cycles=1, l2_l1_bytes=0, weight_passes=0)

    def test_merge_costs(self):
        merged = merge_costs("sum", [
            KernelCost("a", 10, 100, weight_bytes=5, weight_passes=1, macs=50),
            KernelCost("b", 20, 200, weight_bytes=10, weight_passes=3, macs=60),
        ])
        assert merged.compute_cycles == 30
        assert merged.l2_l1_bytes == 300
        assert merged.weight_bytes == 15
        assert merged.weight_passes == 3
        assert merged.macs == 110

    def test_merge_adds_floats_left_to_right(self):
        # A compensated sum (`sum` from Python 3.12 on) reads 1e16 + 2
        # here; every interpreter must give the left-to-right 1e16.
        merged = merge_costs("sum", [
            KernelCost(name, value, value)
            for name, value in (("a", 1.0), ("b", 1e16), ("c", 1.0))
        ])
        assert merged.compute_cycles == 1e16
        assert merged.l2_l1_bytes == 1e16

    def test_merge_empty(self):
        merged = merge_costs("empty", [])
        assert merged.compute_cycles == 0 and merged.l2_l1_bytes == 0


class TestMatmulEfficiency:
    def test_saturation_curve(self):
        model = MatmulEfficiencyModel()
        assert model.saturation(0, 4) == 0.0
        assert model.saturation(4, 4) == pytest.approx(0.5)
        assert model.saturation(4000, 4) > 0.99

    def test_gemm_efficiency_improves_with_size(self):
        model = MatmulEfficiencyModel()
        small = model.gemm_efficiency(rows=4, cols=32, inner=32, num_cores=8)
        large = model.gemm_efficiency(rows=256, cols=512, inner=512, num_cores=8)
        assert 0 < small < large < model.gemm_peak_efficiency

    def test_gemv_throughput_below_gemm_peak(self, cluster):
        model = MatmulEfficiencyModel()
        gemv = model.gemv_macs_per_cycle(cluster, inner=512, cols=512)
        assert gemv < cluster.peak_macs_per_cycle * model.gemm_peak_efficiency

    def test_row_tile_uses_int32_accumulators(self):
        model = MatmulEfficiencyModel(l1_activation_budget_bytes=64 * 1024)
        # 512-in / 512-out int8 rows cost 512 + 4*512 = 2560 bytes per row.
        assert model.row_tile_rows(512, 512, 1) == 64 * 1024 // 2560
        assert model.row_tile_rows(0, 0, 1) == 1


class TestLinearCost:
    def test_gemm_vs_gemv_regimes(self, cluster):
        model = MatmulEfficiencyModel()
        gemm = linear_cost(
            LinearOp("fc", rows=128, in_features=512, out_features=512), cluster, model
        )
        gemv = linear_cost(
            LinearOp("fc", rows=1, in_features=512, out_features=512), cluster, model
        )
        # Per MAC, the GEMM is far more efficient than the GEMV.
        assert gemm.effective_macs_per_cycle > 2 * gemv.effective_macs_per_cycle
        assert gemv.weight_passes == 1

    def test_large_gemm_needs_multiple_weight_passes(self, cluster):
        model = MatmulEfficiencyModel()
        cost = linear_cost(
            LinearOp("fc", rows=268, in_features=512, out_features=512), cluster, model
        )
        assert cost.weight_passes > 1
        assert cost.streamed_weight_bytes > cost.weight_bytes

    def test_zero_work_is_free(self, cluster):
        cost = linear_cost(
            LinearOp("fc", rows=1, in_features=0, out_features=0, has_bias=False),
            cluster,
            MatmulEfficiencyModel(),
        )
        assert cost.compute_cycles == 0
        assert cost.macs == 0

    def test_l2_l1_bytes_cover_weights_and_activations(self, cluster):
        op = LinearOp("fc", rows=4, in_features=64, out_features=64, has_bias=False)
        cost = linear_cost(op, cluster, MatmulEfficiencyModel())
        assert cost.l2_l1_bytes == op.weight_bytes + op.input_bytes + op.output_bytes


class TestElementwiseModel:
    def test_costs_scale_with_elements(self, cluster):
        model = ElementwiseModel()
        small = model.softmax_cost(SoftmaxOp("s", rows=1, cols=64), cluster)
        large = model.softmax_cost(SoftmaxOp("s", rows=1, cols=640), cluster)
        assert large.compute_cycles == pytest.approx(10 * small.compute_cycles)

    def test_rmsnorm_cheaper_than_layernorm(self, cluster):
        model = ElementwiseModel()
        layernorm = model.norm_cost(
            NormOp("ln", rows=4, cols=512, kind=NormKind.LAYERNORM), cluster
        )
        rmsnorm = model.norm_cost(
            NormOp("rms", rows=4, cols=512, kind=NormKind.RMSNORM), cluster
        )
        assert rmsnorm.compute_cycles < layernorm.compute_cycles

    def test_activation_kinds_have_distinct_costs(self, cluster):
        model = ElementwiseModel()
        gelu = model.activation_cost(
            ActivationOp("a", rows=1, cols=512, kind=ActivationKind.GELU), cluster
        )
        relu = model.activation_cost(
            ActivationOp("a", rows=1, cols=512, kind=ActivationKind.RELU), cluster
        )
        assert gelu.compute_cycles > relu.compute_cycles

    def test_zero_elements_free(self, cluster):
        model = ElementwiseModel()
        cost = model.elementwise_cost(
            ElementwiseOp("e", rows=0, cols=512, kind=ElementwiseKind.ADD), cluster
        )
        assert cost.compute_cycles == 0


class TestKernelLibrary:
    def test_dispatch_covers_all_operator_types(self, library):
        ops = [
            LinearOp("fc", rows=4, in_features=64, out_features=64),
            AttentionMatmulOp("scores", rows=4, inner=16, cols=4, heads=2),
            SoftmaxOp("softmax", rows=4, cols=4, heads=2),
            NormOp("norm", rows=4, cols=64),
            ActivationOp("act", rows=4, cols=64),
            ElementwiseOp("add", rows=4, cols=64),
        ]
        costs = library.costs(ops)
        assert len(costs) == len(ops)
        assert all(cost.compute_cycles > 0 for cost in costs)

    def test_unknown_operator_rejected(self, library):
        class UnknownOp(Operator):
            pass

        with pytest.raises(ConfigurationError, match="no kernel cost model"):
            library.cost(UnknownOp(name="mystery"))

    def test_total_cost_aggregates(self, library):
        ops = [
            LinearOp("fc1", rows=4, in_features=64, out_features=64),
            LinearOp("fc2", rows=4, in_features=64, out_features=64),
        ]
        total = library.total_cost(ops)
        individual = library.costs(ops)
        assert total.compute_cycles == pytest.approx(
            sum(cost.compute_cycles for cost in individual)
        )
        assert total.macs == sum(cost.macs for cost in individual)
