"""Weight-replicated (sequence-parallel) baseline.

This models the approach of prior low-power distributed-Transformer work
such as "When the Edge Meets Transformers" (Table I of the paper): the
sequence dimension is split across chips, so every chip processes a share
of the rows but must hold a **full copy of the block weights**.  Two
consequences follow, and they are exactly what the paper criticises:

* the per-chip weight footprint does not shrink with the chip count, so
  the weights keep living in off-chip memory and the L3 traffic is paid by
  *every* chip;
* the attention needs the keys and values of all rows, so the chips must
  all-gather their freshly-projected K/V slices (and the layer output)
  every block.

In autoregressive mode there is only one query row, so the scheme cannot
spread work at all — all chips except one idle, which the result reflects.
"""

from __future__ import annotations

import math
from typing import Tuple

from ..analysis.evaluate import active_program_memo
from ..api.result import EvalResult
from ..core.footprint import ChipFootprint, activation_footprint
from ..core.partition import partition_block
from ..core.placement import MemoryPlan, WeightResidency, plan_memory
from ..core.scheduler import l3_transfers
from ..graph.transformer import (
    BlockSlice,
    build_block_operators,
    full_block_slice,
    slice_weight_bytes,
)
from ..graph.workload import Workload
from ..hw.chip import ChipModel
from ..hw.platform import MultiChipPlatform
from ..kernels.base import KernelCost
from ..kernels.library import KernelLibrary


def evaluate_weight_replicated(
    workload: Workload, platform: MultiChipPlatform
) -> EvalResult:
    """Analytically evaluate the weight-replicated sequence-parallel scheme."""
    config = workload.config
    num_chips = platform.num_chips

    rows_total = workload.query_rows
    rows_per_chip = max(1, math.ceil(rows_total / num_chips))
    active_chips = min(num_chips, rows_total)

    # A session builds each distinct per-chip block once (see
    # ProgramMemo.replicated_block); chip counts with equal rows share it.
    memo = active_program_memo()
    cost, plan = (
        replicated_block(workload, rows_per_chip, platform.chip)
        if memo is None
        else memo.replicated_block(
            workload, rows_per_chip, platform.chip, replicated_block
        )
    )

    dma = platform.chip.dma
    compute_cycles = cost.compute_cycles
    l2_l1_cycles = dma.l2_l1.transfer_cycles(int(cost.l2_l1_bytes))
    if plan.residency is WeightResidency.STREAMED:
        l3_bytes_per_chip = cost.streamed_weight_bytes
        l3_cycles = dma.l3_l2.transfer_cycles(
            int(l3_bytes_per_chip), l3_transfers(l3_bytes_per_chip)
        )
        block_cycles = compute_cycles + l3_cycles + l2_l1_cycles
    elif plan.residency is WeightResidency.SINGLE_BUFFERED:
        l3_bytes_per_chip = plan.block_weight_bytes
        l3_cycles = dma.l3_l2.transfer_cycles(
            int(l3_bytes_per_chip), l3_transfers(l3_bytes_per_chip)
        )
        block_cycles = max(compute_cycles, l2_l1_cycles) + l3_cycles
    else:
        l3_bytes_per_chip = plan.l3_weight_bytes_per_block
        block_cycles = max(compute_cycles, l2_l1_cycles)

    # All-gather of the new K/V rows and of the per-chip output rows: every
    # chip must end up with the full S x E output and the full K/V.
    c2c_bytes_total = 0
    c2c_cycles = 0.0
    if num_chips > 1 and rows_total > 1:
        act = config.act_dtype.size_bytes
        gathered_rows = rows_total - rows_per_chip
        per_chip_received = 3 * gathered_rows * config.embed_dim * act
        c2c_bytes_total = per_chip_received * active_chips
        c2c_cycles = platform.link.transfer_cycles(
            per_chip_received, platform.frequency_hz
        ) + platform.link.latency_cycles * (active_chips - 1)
        block_cycles += c2c_cycles

    # Energy: the paper's equation, with every active chip paying the full
    # replicated L3 traffic.
    cluster = platform.chip.cluster
    compute_energy = (
        active_chips * cluster.power_w * compute_cycles / cluster.frequency_hz
    )
    l2_energy = (
        active_chips
        * cost.l2_l1_bytes
        * platform.chip.l2.access_energy_pj_per_byte
        * 1e-12
    )
    l3_bytes_total = active_chips * l3_bytes_per_chip
    l3_energy = l3_bytes_total * platform.chip.l3.access_energy_pj_per_byte * 1e-12
    c2c_energy = platform.link.transfer_energy_joules(int(c2c_bytes_total))

    return EvalResult(
        strategy="weight_replicated",
        approach="Sequence parallel, replicated weights",
        workload=workload,
        num_chips=num_chips,
        frequency_hz=platform.frequency_hz,
        block_cycles=block_cycles,
        block_energy_joules=compute_energy + l2_energy + l3_energy + c2c_energy,
        l3_bytes_per_block=l3_bytes_total,
        weight_bytes_per_chip=plan.block_weight_bytes,
        weights_replicated=True,
        synchronisations_per_block=2 if num_chips > 1 else 0,
        uses_pipelining=False,
        notes=(
            "rows split across chips; full weights on every chip; "
            "K/V and outputs all-gathered"
        ),
    )


def replicated_block(
    workload: Workload, rows_per_chip: int, chip: ChipModel
) -> Tuple[KernelCost, MemoryPlan]:
    """Kernel price and memory plan of one chip's rows of the block.

    The memory plan holds the FULL block weights on every chip: this is
    the point of the comparison — replication keeps the weights off-chip.
    """
    config = workload.config
    operators = build_block_operators(
        config,
        query_rows=rows_per_chip,
        kv_rows=rows_per_chip,
        attended_positions=workload.attended_positions,
        slice_=BlockSlice(
            num_heads=config.num_heads,
            ffn_cols=config.ffn_dim,
            holds_norms=True,
            holds_residual=True,
        ),
    )
    cost = KernelLibrary(cluster=chip.cluster).total_cost(
        operators.all_operators, name="replicated_block"
    )
    single_chip = partition_block(config, 1).chips[0]
    block_weight_bytes = full_block_weight_bytes(config)
    footprint = ChipFootprint(
        chip_id=0,
        block_weight_bytes=block_weight_bytes,
        model_weight_bytes=block_weight_bytes * config.num_layers,
        kv_cache_bytes=(
            single_chip.kv_cache(config, workload).total_bytes
            if workload.uses_kv_cache
            else 0
        ),
        activations=activation_footprint(config, workload, single_chip),
    )
    return cost, plan_memory(chip, footprint)


def full_block_weight_bytes(config) -> int:
    """Weight bytes of one un-partitioned block."""
    return slice_weight_bytes(config, full_block_slice(config))
