"""Property-based tests of the kernel cost models and the oracle's event engine."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.ops import LinearOp, SoftmaxOp
from repro.hw.presets import siracusa_cluster
from repro.kernels.elementwise import ElementwiseModel
from repro.kernels.library import KernelLibrary
from repro.kernels.matmul import MatmulEfficiencyModel, linear_cost
from sim_oracle import Environment


CLUSTER = siracusa_cluster()
EFFICIENCY = MatmulEfficiencyModel()
LIBRARY = KernelLibrary(cluster=CLUSTER)


class TestKernelProperties:
    @settings(max_examples=80, deadline=None)
    @given(
        rows=st.integers(min_value=1, max_value=512),
        in_features=st.integers(min_value=1, max_value=4096),
        out_features=st.integers(min_value=1, max_value=4096),
    )
    def test_linear_cost_is_positive_and_bounded_by_peak(
        self, rows, in_features, out_features
    ):
        op = LinearOp("fc", rows=rows, in_features=in_features,
                      out_features=out_features)
        cost = linear_cost(op, CLUSTER, EFFICIENCY)
        assert cost.compute_cycles > 0
        assert cost.macs == rows * in_features * out_features
        # No kernel can beat the cluster's peak MAC throughput.
        assert cost.effective_macs_per_cycle <= CLUSTER.peak_macs_per_cycle + 1e-9
        assert cost.weight_passes >= 1
        assert cost.l2_l1_bytes >= cost.weight_bytes

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(min_value=2, max_value=512),
        in_features=st.integers(min_value=8, max_value=2048),
        out_features=st.integers(min_value=8, max_value=2048),
        scale=st.integers(min_value=2, max_value=8),
    )
    def test_more_work_costs_more(self, rows, in_features, out_features, scale):
        small = linear_cost(
            LinearOp("fc", rows=rows, in_features=in_features,
                     out_features=out_features),
            CLUSTER, EFFICIENCY,
        )
        large = linear_cost(
            LinearOp("fc", rows=rows * scale, in_features=in_features,
                     out_features=out_features),
            CLUSTER, EFFICIENCY,
        )
        assert large.compute_cycles > small.compute_cycles
        assert large.weight_passes >= small.weight_passes

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(min_value=1, max_value=64),
        cols=st.integers(min_value=1, max_value=2048),
        heads=st.integers(min_value=1, max_value=64),
    )
    def test_softmax_cost_scales_linearly(self, rows, cols, heads):
        model = ElementwiseModel()
        single = model.softmax_cost(SoftmaxOp("s", rows=rows, cols=cols, heads=1), CLUSTER)
        many = model.softmax_cost(
            SoftmaxOp("s", rows=rows, cols=cols, heads=heads), CLUSTER
        )
        assert many.compute_cycles == pytest.approx(heads * single.compute_cycles)

    @settings(max_examples=40, deadline=None)
    @given(
        in_features=st.integers(min_value=1, max_value=4096),
        out_features=st.integers(min_value=1, max_value=4096),
    )
    def test_row_tile_is_positive(self, in_features, out_features):
        rows = EFFICIENCY.row_tile_rows(in_features, out_features, 1)
        assert rows >= 1


class TestEngineProperties:
    @settings(max_examples=50, deadline=None)
    @given(delays=st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=20))
    def test_sequential_timeouts_sum(self, delays):
        env = Environment()
        finished = []

        def process():
            for delay in delays:
                yield env.timeout(delay)
            finished.append(env.now)

        env.process(process())
        env.run()
        assert finished and abs(finished[0] - sum(delays)) < 1e-6

    @settings(max_examples=50, deadline=None)
    @given(delays=st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=20))
    def test_parallel_processes_finish_at_max(self, delays):
        env = Environment()

        def worker(delay):
            yield env.timeout(delay)

        for delay in delays:
            env.process(worker(delay))
        final = env.run()
        assert abs(final - max(delays)) < 1e-6
