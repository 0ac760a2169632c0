"""Block scheduler: turns a partition into per-chip execution schedules.

The scheduler stitches together everything built so far:

1. the tensor-parallel :class:`~repro.core.partition.BlockPartition`
   (who owns which heads and FFN columns),
2. each chip's :class:`~repro.core.placement.MemoryPlan`
   (where its weights live),
3. the kernel cost models (how long each operator takes and how much
   L2<->L1 traffic it generates),
4. the hierarchical collective plans (the two synchronisations per block),

and emits a :class:`~repro.core.schedule.BlockProgram` that the
block simulator executes.  The schedule it builds for one block is
exactly the paper's execution scheme (Sec. IV and Fig. 3):

* every chip computes its partial MHSA (Q/K/V projections for its heads,
  attention, output projection slice),
* the partial outputs are reduced hierarchically onto the root chip, which
  merges the residual, applies the normalisation, and broadcasts the
  result,
* every chip computes its FFN slice, followed by the second
  reduce / residual / normalisation / broadcast,
* depending on the weight-residency regime, weights are streamed from L3,
  loaded per block, or prefetched for the next block in the background.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional

from ..errors import SchedulingError
from ..graph.ops import ElementwiseKind, ElementwiseOp, NormOp, Operator
from ..graph.transformer import BlockSlice, build_block_operators
from ..graph.workload import Workload
from ..hw.platform import MultiChipPlatform
from ..kernels.library import KernelLibrary
from .collectives import CollectivePlan, hierarchical_all_reduce, hierarchical_broadcast
from .footprint import chip_footprint
from .partition import BlockPartition, ChipPartition, partition_block
from .placement import MemoryPlan, PrefetchAccounting, WeightResidency, plan_memory
from .schedule import (
    BlockProgram,
    ChipSchedule,
    ComputeStep,
    DmaChannelName,
    DmaStep,
    PrefetchJoinStep,
    PrefetchStep,
    RecvStep,
    SendStep,
    Step,
)

#: Tile size used when streaming or loading weights over the L3 interface;
#: each tile pays the off-chip channel's per-transaction setup cost.
L3_STREAM_TILE_BYTES = 64 * 1024


def l3_transfers(num_bytes: float) -> int:
    """Tile transfers that move ``num_bytes`` over the L3 interface.

    A transfer of no bytes still counts one; the channel prices it at
    zero cycles.
    """
    return max(1, math.ceil(num_bytes / L3_STREAM_TILE_BYTES))


@dataclass
class BlockScheduler:
    """Builds :class:`BlockProgram` instances for a platform.

    Attributes:
        platform: The multi-chip platform to schedule for.
        kernel_library: Custom kernel cost models; ``None`` means the
            platform's default, a library built on its cluster when the
            scheduler first prices an operator.  Programs record this
            argument as it is, so a default one carries no library.
        prefetch_accounting: How double-buffered prefetches are charged to
            runtime (see :class:`PrefetchAccounting`).

    Each transfer's synchronisation steps come from ``_step_table`` (see
    :meth:`_append_transfers`).  A scheduler starts with a table of its
    own; a session's program memo points it at the session's table, so
    builds at many chip counts share each edge of the reduction tree.
    """

    platform: MultiChipPlatform
    kernel_library: Optional[KernelLibrary] = None
    prefetch_accounting: PrefetchAccounting = PrefetchAccounting.HIDDEN
    _step_table: Dict[tuple, tuple] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    @cached_property
    def _library(self) -> KernelLibrary:
        """The kernel cost models every operator is priced with."""
        return self.kernel_library or KernelLibrary(cluster=self.platform.chip.cluster)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def build(
        self,
        workload: Workload,
        partition: Optional[BlockPartition] = None,
    ) -> BlockProgram:
        """Build the program for one Transformer block of ``workload``.

        Args:
            workload: The inference workload to schedule.
            partition: Optional pre-built partition; by default the block is
                partitioned across all chips of the platform with
                :func:`repro.core.partition.partition_block`.

        Raises:
            SchedulingError: If the partition does not match the platform.
        """
        config = workload.config
        if partition is None:
            partition = partition_block(config, self.platform.num_chips)
        if partition.num_chips != self.platform.num_chips:
            raise SchedulingError(
                f"partition covers {partition.num_chips} chips but the platform "
                f"has {self.platform.num_chips}"
            )

        reduce_bytes = (
            workload.query_rows * config.embed_dim * config.act_dtype.size_bytes
        )
        all_reduce = hierarchical_all_reduce(self.platform, reduce_bytes)
        broadcast = hierarchical_broadcast(self.platform, reduce_bytes)

        # The two synchronisations are assembled once for the whole
        # platform (one pass over the collective plans, bucketed per
        # chip), from transfer steps shared through the step table.
        sync_steps = {
            stage: self._synchronisation_steps_by_chip(
                stage, workload, partition, all_reduce, broadcast
            )
            for stage in ("attn", "ffn")
        }

        # Chips with the same partition slice produce identical memory
        # plans and local (kernel/staging) steps, so those are built once
        # per unique slice and shared; steps are immutable, and the plan
        # only needs its chip id rebound.
        slice_cache: Dict[tuple, tuple] = {}
        memory_plans: Dict[int, MemoryPlan] = {}
        schedules: Dict[int, ChipSchedule] = {}
        for chip in partition.chips:
            slice_key = (
                chip.num_heads,
                chip.kv_heads,
                chip.ffn_cols,
                chip.num_experts,
            )
            cached = slice_cache.get(slice_key)
            if cached is None:
                footprint = chip_footprint(config, workload, chip)
                plan = plan_memory(self.platform.chip, footprint)
                cached = (plan, self._local_steps(workload, chip, plan))
                slice_cache[slice_key] = cached
            plan, local = cached
            if plan.chip_id != chip.chip_id:
                plan = MemoryPlan(
                    chip_id=chip.chip_id,
                    residency=plan.residency,
                    l2_budget_bytes=plan.l2_budget_bytes,
                    required_bytes=plan.required_bytes,
                    block_weight_bytes=plan.block_weight_bytes,
                    l3_weight_bytes_per_block=plan.l3_weight_bytes_per_block,
                )
            memory_plans[chip.chip_id] = plan
            staging, attn, ffn, tail = local
            steps = (
                staging
                + attn
                + sync_steps["attn"][chip.chip_id]
                + ffn
                + sync_steps["ffn"][chip.chip_id]
                + tail
            )
            schedules[chip.chip_id] = ChipSchedule(
                chip_id=chip.chip_id, steps=tuple(steps)
            )

        program = BlockProgram(
            workload=workload,
            platform=self.platform,
            partition=partition,
            memory_plans=memory_plans,
            schedules=schedules,
            prefetch_accounting=self.prefetch_accounting,
            kernel_library=self.kernel_library,
        )
        # Scheduler-built schedules are a deterministic function of the
        # program's other fields, so pickling may drop and rebuild them
        # (see BlockProgram.__getstate__); hand-built programs lack the
        # mark and serialise their schedules in full.
        object.__setattr__(program, "_schedules_are_canonical", True)
        return program

    def rebind(self, program: BlockProgram, workload: Workload) -> BlockProgram:
        """``program`` re-targeted at this scheduler's platform and library.

        ``program`` must have been built by :meth:`build` for ``workload``
        on a platform that differs from this scheduler's only in what
        :meth:`build` does not read: the cluster clock and the link.  The
        copy shares its schedules and memory plans (both immutable), and
        the compiled-sweep slot when the original carries one, and skips
        ``__post_init__`` validation, which the original passed.
        The simulator and the energy model price a program from its
        platform, so pointing it at the caller's platform is what makes
        the reuse correct.  The partition is re-pointed at the caller's
        (equal) model configuration too, so the copy pickles to the same
        bytes as a fresh build, which shares one configuration object.
        """
        partition = program.partition
        if partition.config is not workload.config:
            partition = object.__new__(BlockPartition)
            partition.__dict__.update(program.partition.__dict__, config=workload.config)
        rebound = object.__new__(BlockProgram)
        rebound.__dict__.update(program.__dict__)
        rebound.__dict__.update(
            workload=workload,
            platform=self.platform,
            partition=partition,
            kernel_library=self.kernel_library,
        )
        return rebound

    # ------------------------------------------------------------------
    # Per-chip schedule construction
    # ------------------------------------------------------------------
    def _local_steps(
        self,
        workload: Workload,
        chip: ChipPartition,
        plan: MemoryPlan,
    ) -> tuple:
        """The chip-local step groups of one slice, in schedule order.

        Returns ``(staging, attn, ffn, tail)``; everything here depends
        only on the chip's slice (head and FFN-column counts), so chips
        with equal slices share one instance of each group.
        """
        config = workload.config
        streamed = plan.residency is WeightResidency.STREAMED
        # Expert step names use indices relative to the chip (expert0..n-1):
        # chips owning equally many experts at different offsets share
        # identical step lists, which keeps the slice cache effective.
        operators = build_block_operators(
            config,
            query_rows=workload.query_rows,
            kv_rows=workload.new_kv_rows,
            attended_positions=workload.attended_positions,
            slice_=BlockSlice(
                num_heads=chip.num_heads,
                ffn_cols=chip.ffn_cols,
                holds_norms=False,
                holds_residual=False,
                kv_heads=chip.kv_heads,
                num_experts=chip.num_experts,
            ),
            cross_attended_positions=workload.cross_attended_positions,
        )
        tail: List[Step] = []
        if (
            plan.residency is WeightResidency.DOUBLE_BUFFERED
            and self.prefetch_accounting is PrefetchAccounting.OVERLAP
        ):
            tail.append(PrefetchJoinStep(name="weights.prefetch_join"))
        return (
            self._weight_staging_steps(plan),
            self._stage_steps("attn", operators.attention, streamed),
            self._stage_steps("ffn", operators.ffn, streamed),
            tail,
        )

    def _weight_staging_steps(self, plan: MemoryPlan) -> List[Step]:
        """Steps that bring the block's weights on-chip (or start doing so)."""
        if plan.l3_weight_bytes_per_block == 0:
            return []
        transfers = l3_transfers(plan.block_weight_bytes)
        if plan.residency is WeightResidency.SINGLE_BUFFERED:
            return [
                DmaStep(
                    name="weights.load_block",
                    channel=DmaChannelName.L3_L2,
                    num_bytes=plan.block_weight_bytes,
                    num_transfers=transfers,
                )
            ]
        if plan.residency is WeightResidency.DOUBLE_BUFFERED:
            if self.prefetch_accounting is PrefetchAccounting.BLOCKING:
                return [
                    DmaStep(
                        name="weights.load_block",
                        channel=DmaChannelName.L3_L2,
                        num_bytes=plan.block_weight_bytes,
                        num_transfers=transfers,
                    )
                ]
            return [
                PrefetchStep(
                    name="weights.prefetch_next_block",
                    num_bytes=plan.block_weight_bytes,
                )
            ]
        # STREAMED: weights are fetched per operator inside the stages.
        return []

    def _stage_steps(
        self, stage: str, operators: List[Operator], streamed: bool
    ) -> List[Step]:
        """Kernel (and, when streaming, weight-fetch) steps of one stage."""
        steps: List[Step] = []
        for op in operators:
            cost = self._library.cost(op)
            if streamed and cost.weight_bytes > 0:
                stream_bytes = cost.streamed_weight_bytes
                steps.append(
                    DmaStep(
                        name=f"{stage}.{op.name}.stream_weights",
                        channel=DmaChannelName.L3_L2,
                        num_bytes=stream_bytes,
                        num_transfers=l3_transfers(stream_bytes),
                    )
                )
            steps.append(
                ComputeStep(
                    name=f"{stage}.{op.name}",
                    compute_cycles=cost.compute_cycles,
                    l2_l1_bytes=cost.l2_l1_bytes,
                    overlap_dma=not streamed,
                )
            )
        return steps

    def _synchronisation_steps_by_chip(
        self,
        stage: str,
        workload: Workload,
        partition: BlockPartition,
        all_reduce: CollectivePlan,
        broadcast: CollectivePlan,
    ) -> Dict[int, List[Step]]:
        """One of the block's two synchronisations, for every chip at once.

        Consists of the hierarchical all-reduce (with per-message
        accumulation on the receivers), the residual merge and
        normalisation on the root chip, and the hierarchical broadcast.
        In the single-chip case only the residual and normalisation
        remain.  The collective plans are walked once, appending each
        transfer's steps, taken from the step table, to its two endpoint
        chips (:meth:`_append_transfers`), so building all schedules is
        linear in the number of transfers instead of quadratic in the
        chip count.
        """
        config = workload.config
        rows = workload.query_rows
        steps_by_chip: Dict[int, List[Step]] = {
            chip.chip_id: [] for chip in partition.chips
        }

        # Every accumulation has the same shape; price it once and only
        # vary the step name (which appears in traces) per source chip.
        accumulate_cost = self._library.cost(
            ElementwiseOp(
                name=f"{stage}.reduce_accumulate",
                rows=rows,
                cols=config.embed_dim,
                kind=ElementwiseKind.ADD,
                act_dtype=config.act_dtype,
            )
        )
        self._append_transfers(
            steps_by_chip,
            stage,
            "reduce",
            all_reduce,
            (accumulate_cost.compute_cycles, accumulate_cost.l2_l1_bytes),
        )

        residual = ElementwiseOp(
            name=f"{stage}.residual_add",
            rows=rows,
            cols=config.embed_dim,
            kind=ElementwiseKind.ADD,
            act_dtype=config.act_dtype,
        )
        norm = NormOp(
            name=f"{stage}.norm",
            rows=rows,
            cols=config.embed_dim,
            kind=config.norm_kind,
            act_dtype=config.act_dtype,
        )
        merge_steps = [
            ComputeStep(
                name=op.name,
                compute_cycles=cost.compute_cycles,
                l2_l1_bytes=cost.l2_l1_bytes,
                overlap_dma=True,
            )
            for op in (residual, norm)
            for cost in (self._library.cost(op),)
        ]
        for chip in partition.chips:
            if chip.is_reduce_root:
                steps_by_chip[chip.chip_id].extend(merge_steps)

        self._append_transfers(steps_by_chip, stage, "bcast", broadcast, None)
        return steps_by_chip

    def _append_transfers(
        self,
        steps_by_chip: Dict[int, List[Step]],
        stage: str,
        collective: str,
        plan: CollectivePlan,
        accumulate: Optional[tuple],
    ) -> None:
        """Append each transfer of ``plan`` to its two endpoint chips.

        ``accumulate`` is the ``(compute_cycles, l2_l1_bytes)`` price of
        the receiver's accumulation in a reduction, ``None`` in a
        broadcast.  A transfer's steps depend on nothing but the key
        ``(stage, collective, round, sender, receiver, payload bytes,
        accumulate)``, so they are taken from the step table and built
        only on a miss.  Within one build every key is distinct; across
        the builds sharing a table, an edge of the reduction tree is the
        same key at every chip count whose tree holds it in the same
        round.
        """
        table = self._step_table
        for round_index, round_ in enumerate(plan.rounds):
            for transfer in round_.transfers:
                src, dst, num_bytes = transfer.src, transfer.dst, transfer.num_bytes
                key = (stage, collective, round_index, src, dst, num_bytes, accumulate)
                steps = table.get(key)
                if steps is None:
                    steps = table[key] = _transfer_steps(*key)
                send, received = steps
                steps_by_chip[src].append(send)
                steps_by_chip[dst].extend(received)


def _transfer_steps(
    stage: str,
    collective: str,
    round_index: int,
    src: int,
    dst: int,
    num_bytes: int,
    accumulate: Optional[tuple],
) -> tuple:
    """``(sender's step, receiver's steps)`` of one collective transfer."""
    tag = f"{stage}.{collective}.r{round_index}.{src}->{dst}"
    send = SendStep(
        name=f"{stage}.{collective}.send_to_{dst}",
        dst=dst,
        num_bytes=num_bytes,
        tag=tag,
    )
    recv = RecvStep(
        name=f"{stage}.{collective}.recv_from_{src}",
        src=src,
        num_bytes=num_bytes,
        tag=tag,
    )
    if accumulate is None:
        return send, (recv,)
    compute_cycles, l2_l1_bytes = accumulate
    return send, (
        recv,
        ComputeStep(
            name=f"{stage}.reduce_accumulate_from_{src}",
            compute_cycles=compute_cycles,
            l2_l1_bytes=l2_l1_bytes,
            overlap_dma=True,
        ),
    )
