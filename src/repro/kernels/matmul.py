"""Cycle models for GEMM and GEMV kernels on the octa-core cluster.

Two regimes matter for the paper's story:

* **GEMM** (prompt/encoder mode): each weight element is reused across all
  input rows, so the kernel is compute-bound.  Its efficiency degrades when
  the per-chip tile shrinks — fewer output columns per core, shorter inner
  dimensions — which is exactly the "kernel size does not scale down
  linearly" effect the paper reports for MobileBERT on 4 chips.
* **GEMV** (autoregressive mode): each weight element is used exactly once,
  so the kernel is bound by how fast weights stream through L1 and by the
  per-element address/load overhead of the cores; the achieved MAC
  throughput is far below the SIMD peak.

The constants below are calibration parameters of this reproduction (the
paper does not publish kernel-level numbers); they were chosen so the
single-chip runtimes land in the range shown in Fig. 5 of the paper and are
documented under "Calibrated constants" in ``docs/MODELS.md``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..graph.ops import AttentionMatmulOp, LinearOp
from ..hw.cluster import ClusterModel
from .base import KernelCost

#: Bytes per element of the int8 kernels' output accumulators.
ACCUMULATOR_BYTES = 4


@dataclass(frozen=True)
class MatmulEfficiencyModel:
    """Utilisation model of the cluster's matmul kernels.

    Attributes:
        gemm_peak_efficiency: Fraction of the SIMD peak reachable by a
            well-shaped GEMM (pipeline stalls, loop overhead, im2col-free
            addressing).
        gemv_macs_per_core_per_cycle: Sustained MACs per core per cycle for
            GEMV, limited by streaming weights through the core load ports.
        rows_half_point: Row count at which row-dimension utilisation
            reaches one half (start-up / drain overhead of the row loop).
        cols_per_core_half_point: Output-columns-per-core at which the
            column-dimension utilisation reaches one half (work imbalance
            across the eight cores for narrow outputs).
        inner_half_point: Inner-dimension length at which the dot-product
            utilisation reaches one half (SIMD prologue/epilogue overhead).
        l1_activation_budget_bytes: L1 bytes usable for the input and output
            row tiles of one kernel invocation; determines how many row
            tiles (weight passes) a large GEMM needs.
        elementwise_parallel_efficiency: Core-parallel efficiency of the
            non-matmul operators.
    """

    gemm_peak_efficiency: float = 0.55
    gemv_macs_per_core_per_cycle: float = 0.33
    rows_half_point: float = 4.0
    cols_per_core_half_point: float = 4.0
    inner_half_point: float = 24.0
    l1_activation_budget_bytes: int = 64 * 1024
    elementwise_parallel_efficiency: float = 0.7

    def saturation(self, value: float, half_point: float) -> float:
        """A saturating utilisation curve: 0 at 0, 1/2 at ``half_point``, -> 1."""
        if value <= 0:
            return 0.0
        return value / (value + half_point)

    def gemm_efficiency(self, rows: int, cols: int, inner: int, num_cores: int) -> float:
        """Fraction of peak MAC throughput achieved by a GEMM tile."""
        cols_per_core = cols / max(num_cores, 1)
        return (
            self.gemm_peak_efficiency
            * self.saturation(rows, self.rows_half_point)
            * self.saturation(cols_per_core, self.cols_per_core_half_point)
            * self.saturation(inner, self.inner_half_point)
        )

    def gemv_macs_per_cycle(self, cluster: ClusterModel, inner: int, cols: int) -> float:
        """Sustained cluster MAC throughput for a GEMV."""
        base = cluster.num_cores * self.gemv_macs_per_core_per_cycle
        # Very short dot products and very narrow outputs still pay loop
        # overhead; reuse the saturation curves with gentler half points.
        cols_per_core = cols / max(cluster.num_cores, 1)
        shape_factor = self.saturation(inner, self.inner_half_point) * self.saturation(
            cols_per_core, 1.0
        )
        return max(base * shape_factor, 1e-9)

    def row_tile_rows(self, in_features: int, out_features: int, act_bytes: int) -> int:
        """Rows of the input/output tile that fit in the L1 activation budget.

        The output row tile is held in 32-bit accumulators until the final
        requantisation, so it costs four bytes per element regardless of the
        deployment activation type; this is what limits the row-tile size of
        wide GEMMs and forces the weight matrix to be re-streamed once per
        tile when it is not L2-resident.
        """
        bytes_per_row = in_features * act_bytes + out_features * ACCUMULATOR_BYTES
        if bytes_per_row <= 0:
            return 1
        return max(1, self.l1_activation_budget_bytes // bytes_per_row)


def linear_cost(
    op: LinearOp,
    cluster: ClusterModel,
    efficiency: MatmulEfficiencyModel,
) -> KernelCost:
    """Cost of a weight-bearing linear projection (GEMM or GEMV)."""
    macs = op.macs
    if macs == 0:
        return KernelCost(
            name=op.name,
            compute_cycles=0.0,
            l2_l1_bytes=0.0,
            weight_bytes=op.weight_bytes,
        )
    if op.is_gemv:
        throughput = efficiency.gemv_macs_per_cycle(
            cluster, inner=op.in_features, cols=op.out_features
        )
        passes = 1
    else:
        eff = efficiency.gemm_efficiency(
            rows=op.rows,
            cols=op.out_features,
            inner=op.in_features,
            num_cores=cluster.num_cores,
        )
        throughput = max(cluster.peak_macs_per_cycle * eff, 1e-9)
        tile_rows = efficiency.row_tile_rows(
            op.in_features, op.out_features, op.act_dtype.size_bytes
        )
        passes = max(1, math.ceil(op.rows / tile_rows))
    compute_cycles = macs / throughput
    l2_l1_bytes = op.input_bytes + op.output_bytes + op.weight_bytes
    return KernelCost(
        name=op.name,
        compute_cycles=compute_cycles,
        l2_l1_bytes=l2_l1_bytes,
        weight_bytes=op.weight_bytes,
        weight_passes=passes,
        macs=macs,
    )


def attention_matmul_cost(
    op: AttentionMatmulOp,
    cluster: ClusterModel,
    efficiency: MatmulEfficiencyModel,
) -> KernelCost:
    """Cost of a weight-free attention matmul (``Q.K^T`` or ``A.V``).

    Both operands are activations (the stationary one being the KV-cache),
    so there are no weight bytes; the KV-cache slice still has to be staged
    from L2 into L1, which is captured in ``l2_l1_bytes``.
    """
    macs = op.macs
    if macs == 0:
        return KernelCost(name=op.name, compute_cycles=0.0, l2_l1_bytes=0.0)
    if op.rows == 1:
        throughput = efficiency.gemv_macs_per_cycle(cluster, inner=op.inner, cols=op.cols)
    else:
        eff = efficiency.gemm_efficiency(
            rows=op.rows, cols=op.cols, inner=op.inner, num_cores=cluster.num_cores
        )
        throughput = max(cluster.peak_macs_per_cycle * eff, 1e-9)
    compute_cycles = macs / throughput
    l2_l1_bytes = op.input_bytes + op.output_bytes
    return KernelCost(
        name=op.name,
        compute_cycles=compute_cycles,
        l2_l1_bytes=l2_l1_bytes,
        macs=macs,
    )
