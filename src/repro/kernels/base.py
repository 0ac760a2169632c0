"""Kernel cost abstraction.

A *kernel cost* describes what executing one operator on one chip's cluster
costs, independent of where its weights happen to live:

* ``compute_cycles`` — cluster-busy cycles,
* ``l2_l1_bytes`` — bytes moved between L2 and L1 by the cluster DMA
  (operands in, results out, weights streamed per pass),
* ``weight_bytes`` — the stationary parameter bytes of the operator,
* ``weight_passes`` — how many times the weight matrix must be streamed
  through the memory hierarchy when it is **not** resident in L2.  For a
  GEMV (one input row) this is always one; for a large GEMM whose input
  rows do not fit in L1, the weight matrix is re-streamed once per row
  tile, which is what makes the paper's single-chip (weights-in-L3)
  configurations so expensive.

The placement / scheduling layers combine these numbers with the weight
residency decision to produce L3 traffic and exposed DMA time.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce


@dataclass(frozen=True)
class KernelCost:
    """Cost of one operator on one cluster.

    Attributes:
        name: Operator name this cost belongs to.
        compute_cycles: Cluster-busy cycles.
        l2_l1_bytes: Bytes moved between L2 and L1 (activations plus one
            weight pass).
        weight_bytes: Stationary parameter bytes read by the operator.
        weight_passes: Number of times the full weight tensor must be
            streamed when it is not L2-resident.
        macs: Multiply-accumulate count (for reporting and utilisation
            analysis).
    """

    name: str
    compute_cycles: float
    l2_l1_bytes: float
    weight_bytes: int = 0
    weight_passes: int = 1
    macs: int = 0

    def __post_init__(self) -> None:
        if self.compute_cycles < 0 or self.l2_l1_bytes < 0:
            raise ValueError(f"kernel cost {self.name!r} has negative cycles/bytes")
        if self.weight_bytes < 0 or self.macs < 0:
            raise ValueError(f"kernel cost {self.name!r} has negative sizes")
        if self.weight_passes < 1:
            raise ValueError(f"kernel cost {self.name!r} must have >= 1 weight pass")

    @property
    def streamed_weight_bytes(self) -> float:
        """Total weight bytes crossing L3 when the weights are not resident."""
        return self.weight_bytes * self.weight_passes

    @property
    def effective_macs_per_cycle(self) -> float:
        """Achieved MAC throughput (0 for non-matmul operators)."""
        if self.compute_cycles <= 0:
            return 0.0
        return self.macs / self.compute_cycles


def merge_costs(name: str, costs) -> KernelCost:
    """Aggregate several kernel costs into a single summary cost.

    The aggregate keeps the *maximum* weight-pass count, because that is
    the conservative multiplier to apply if the whole group of operators
    has to stream its weights.
    """
    costs = list(costs)
    if not costs:
        return KernelCost(name=name, compute_cycles=0.0, l2_l1_bytes=0.0)
    # The float totals add left to right, as `sum` does only before
    # Python 3.12 (it compensates from 3.12 on, moving the last bit).
    return KernelCost(
        name=name,
        compute_cycles=reduce(
            operator.add, (cost.compute_cycles for cost in costs), 0
        ),
        l2_l1_bytes=reduce(operator.add, (cost.l2_l1_bytes for cost in costs), 0),
        weight_bytes=sum(cost.weight_bytes for cost in costs),
        weight_passes=max(cost.weight_passes for cost in costs),
        macs=sum(cost.macs for cost in costs),
    )
