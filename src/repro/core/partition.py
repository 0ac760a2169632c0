"""Tensor-parallel partitioning of a Transformer block across chips.

This module implements the paper's core contribution (Sec. IV):

* the Q/K/V/output projection weights are split along the **attention head
  dimension**, so each chip owns a disjoint subset of heads and computes
  its heads' attention entirely locally;
* the two (or three) FFN matrices are split along the **intermediate
  dimension** ``F``, so each chip owns a disjoint slice of FFN columns;
* no weight tensor is replicated on more than one chip;
* the block needs exactly **two synchronisations**: a hierarchical
  all-reduce (fused with the residual add) followed by a broadcast after
  the attention output projection, and the same after the FFN down
  projection.

The partitioner only decides *who owns what*; the communication plan is
built by :mod:`repro.core.collectives` and the per-chip execution schedule
by :mod:`repro.core.scheduler`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..errors import PartitioningError
from ..graph.kvcache import KVCacheSpec, kv_cache_for_slice
from ..graph.transformer import BlockSlice, TransformerConfig, slice_weight_bytes
from ..graph.workload import Workload


def split_evenly(total: int, parts: int) -> List[int]:
    """Split ``total`` units into ``parts`` contiguous, near-equal shares.

    The first ``total % parts`` shares receive one extra unit, which keeps
    the maximum imbalance at a single unit.

    Raises:
        PartitioningError: If ``parts`` is not positive or ``total`` negative.
    """
    if parts <= 0:
        raise PartitioningError(f"cannot split into {parts} parts")
    if total < 0:
        raise PartitioningError(f"cannot split a negative total ({total})")
    base, remainder = divmod(total, parts)
    return [base + 1 if index < remainder else base for index in range(parts)]


def kv_head_coverage(config: TransformerConfig, head_offset: int, num_heads: int) -> int:
    """KV heads a chip owning query heads ``[offset, offset+n)`` must hold.

    For MHA (one KV head per query head) this equals ``num_heads``.  For
    GQA/MQA a KV head is shared by ``heads_per_kv_group`` query heads, so a
    chip covers every group its query range touches; when a group straddles
    a chip boundary both chips hold that KV head.  This bounded boundary
    replication is the standard trade-off of head-dimension tensor
    parallelism over grouped attention — the alternative (routing shared
    KV rows between chips every token) would break the paper's
    two-synchronisations-per-block structure.
    """
    if num_heads <= 0:
        return 0
    group = config.heads_per_kv_group
    first_group = head_offset // group
    last_group = (head_offset + num_heads - 1) // group
    return last_group - first_group + 1


@dataclass(frozen=True)
class ChipPartition:
    """The portion of one Transformer block owned by one chip.

    Attributes:
        chip_id: Index of the chip in the platform.
        num_heads: Attention heads owned by this chip.
        head_offset: Index of this chip's first head in the full model.
        ffn_cols: FFN intermediate columns owned by this chip (for MoE
            models: the per-expert intermediate width, experts being
            assigned whole).
        ffn_col_offset: Index of this chip's first FFN column (0 for MoE).
        is_reduce_root: Whether this chip is the root of the hierarchical
            reduction (it applies the residual and the normalisation).
        kv_heads: KV heads this chip materialises (projections + cache).
            ``None`` falls back to the conservative per-query-head width;
            :func:`partition_block` always records the exact coverage.
        num_experts: FFN experts owned by this chip (``None`` = all).
        expert_offset: Index of this chip's first expert.
    """

    chip_id: int
    num_heads: int
    head_offset: int
    ffn_cols: int
    ffn_col_offset: int
    is_reduce_root: bool
    kv_heads: Optional[int] = None
    num_experts: Optional[int] = None
    expert_offset: int = 0

    def block_slice(self) -> BlockSlice:
        """The graph-level slice description for this chip."""
        return BlockSlice(
            num_heads=self.num_heads,
            ffn_cols=self.ffn_cols,
            holds_norms=self.is_reduce_root,
            holds_residual=self.is_reduce_root,
            kv_heads=self.kv_heads,
            num_experts=self.num_experts,
        )

    def cached_kv_heads(self, config: TransformerConfig) -> int:
        """KV heads this chip caches (exact when set, else conservative)."""
        if self.kv_heads is not None:
            return self.kv_heads
        return min(self.num_heads, config.kv_heads)

    def weight_slice_bytes(self, config: TransformerConfig) -> int:
        """Deployment bytes of this chip's weight slice for one block."""
        return slice_weight_bytes(config, self.block_slice())

    def kv_cache(self, config: TransformerConfig, workload: Workload) -> KVCacheSpec:
        """KV-cache slice this chip must keep resident for the workload."""
        return kv_cache_for_slice(
            config,
            max_positions=workload.kv_cache_positions,
            num_heads=self.cached_kv_heads(config),
        )


@dataclass(frozen=True)
class BlockPartition:
    """A complete partitioning of one Transformer block across ``N`` chips.

    Attributes:
        config: The model configuration being partitioned.
        num_chips: Number of chips.
        chips: Per-chip ownership descriptions, ordered by chip id.
    """

    config: TransformerConfig
    num_chips: int
    chips: Tuple[ChipPartition, ...]

    def __post_init__(self) -> None:
        self.validate()

    # ------------------------------------------------------------------
    # Compact pickling
    # ------------------------------------------------------------------
    # Partitions built by :func:`partition_block` with the default root
    # (which marks them) are a deterministic function of (config,
    # num_chips), so their per-chip shares are dropped from the pickle
    # and rebuilt on first access; hand-crafted partitions are
    # serialised in full.  This keeps persistent-cache entries and
    # process-pool transfers small.
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        if state.pop("_chips_are_canonical", False):
            state.pop("chips", None)
            state["_chips_are_canonical"] = True
        return state

    def __getattr__(self, name: str):
        if name == "chips":
            chips = partition_block(self.config, self.num_chips).chips
            object.__setattr__(self, "chips", chips)
            return chips
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check the paper's structural invariants.

        * every head is owned by exactly one chip (query/output projection
          weights are scattered, never duplicated);
        * dense models: every FFN column is owned by exactly one chip;
          MoE models: every expert is owned by exactly one chip (whole)
          and each expert-holding chip carries the full per-expert width;
        * chip ids are ``0..num_chips-1`` in order;
        * exactly one chip is the reduction root.

        KV-head coverage is only bounds-checked here: GQA group boundaries
        legitimately replicate a KV head on two chips, so exact coverage
        is the builder's responsibility (see :func:`kv_head_coverage`).

        Raises:
            PartitioningError: If any invariant is violated.
        """
        if len(self.chips) != self.num_chips:
            raise PartitioningError(
                f"partition lists {len(self.chips)} chips, expected {self.num_chips}"
            )
        for index, chip in enumerate(self.chips):
            if chip.chip_id != index:
                raise PartitioningError(
                    f"chip entry {index} has id {chip.chip_id}; ids must be ordered"
                )
        if sum(chip.num_heads for chip in self.chips) != self.config.num_heads:
            raise PartitioningError("attention heads are not covered exactly once")
        self._check_disjoint(
            [(chip.head_offset, chip.num_heads) for chip in self.chips],
            total=self.config.num_heads,
            what="head",
        )
        for chip in self.chips:
            if chip.kv_heads is not None and not (
                0 <= chip.kv_heads <= self.config.kv_heads
            ):
                raise PartitioningError(
                    f"chip {chip.chip_id} claims {chip.kv_heads} KV heads; the "
                    f"model has {self.config.kv_heads}"
                )
        if self.config.is_moe:
            expert_ranges = []
            for chip in self.chips:
                if chip.num_experts is None:
                    raise PartitioningError(
                        "MoE partitions must state each chip's expert "
                        "ownership explicitly"
                    )
                if chip.num_experts > 0 and chip.ffn_cols != self.config.ffn_dim:
                    raise PartitioningError(
                        f"chip {chip.chip_id} holds {chip.ffn_cols} FFN columns; "
                        "experts are assigned whole, so expert-holding chips "
                        f"carry the full per-expert width {self.config.ffn_dim}"
                    )
                expert_ranges.append((chip.expert_offset, chip.num_experts))
            self._check_disjoint(
                expert_ranges, total=self.config.num_experts, what="expert"
            )
        else:
            if sum(chip.ffn_cols for chip in self.chips) != self.config.ffn_dim:
                raise PartitioningError("FFN columns are not covered exactly once")
            self._check_disjoint(
                [(chip.ffn_col_offset, chip.ffn_cols) for chip in self.chips],
                total=self.config.ffn_dim,
                what="FFN column",
            )
        roots = [chip for chip in self.chips if chip.is_reduce_root]
        if len(roots) != 1:
            raise PartitioningError(
                f"exactly one reduction root expected, found {len(roots)}"
            )

    @staticmethod
    def _check_disjoint(ranges, total: int, what: str) -> None:
        # Non-empty ranges that tile [0, total) pass; anything else falls
        # through to the index walk, which names the first offending index.
        end = 0
        for offset, length in sorted(item for item in ranges if item[1] > 0):
            if offset != end:
                break
            end += length
        else:
            if end == total:
                return
        covered = [False] * total
        for offset, length in ranges:
            for index in range(offset, offset + length):
                if index < 0 or index >= total:
                    raise PartitioningError(f"{what} index {index} out of range")
                if covered[index]:
                    raise PartitioningError(f"{what} {index} assigned to two chips")
                covered[index] = True
        if not all(covered):
            missing = covered.index(False)
            raise PartitioningError(f"{what} {missing} assigned to no chip")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def reduce_root(self) -> ChipPartition:
        """The chip that applies residuals and normalisations."""
        for chip in self.chips:
            if chip.is_reduce_root:
                return chip
        raise PartitioningError("partition has no reduction root")

    def chip(self, chip_id: int) -> ChipPartition:
        """Return the partition entry of one chip."""
        if not 0 <= chip_id < self.num_chips:
            raise PartitioningError(
                f"chip id {chip_id} out of range for {self.num_chips} chips"
            )
        return self.chips[chip_id]

    def weight_bytes_per_chip(self) -> List[int]:
        """Per-chip weight bytes of one block (no replication by design)."""
        return [chip.weight_slice_bytes(self.config) for chip in self.chips]

    def total_weight_bytes(self) -> int:
        """Sum of all chips' block weight slices.

        For MHA/dense models the scheme never replicates weights, so this
        equals the un-partitioned block weight footprint (the property test
        suite checks this identity).  GQA group boundaries and the MoE
        router add bounded replication, so the sum may exceed the
        un-partitioned footprint for those models.
        """
        return sum(self.weight_bytes_per_chip())

    def max_weight_imbalance(self) -> float:
        """Ratio of the largest to the smallest per-chip weight slice."""
        per_chip = self.weight_bytes_per_chip()
        smallest = min(per_chip)
        if smallest == 0:
            return float("inf")
        return max(per_chip) / smallest


def partition_block(
    config: TransformerConfig,
    num_chips: int,
    *,
    reduce_root: int = 0,
) -> BlockPartition:
    """Partition one Transformer block across ``num_chips`` chips.

    Heads and FFN columns are distributed in contiguous, near-equal shares.
    The paper assumes the head count is divisible by the chip count; this
    implementation also accepts non-divisible configurations (the first
    chips receive one extra head), but refuses to use more chips than there
    are attention heads, because a chip without any head would break the
    "two synchronisations per block" structure.

    Architecture extensions reuse the same two-sync structure:

    * GQA/MQA: each chip additionally records the KV heads its query range
      covers (:func:`kv_head_coverage`; group-straddling boundaries
      replicate one KV head on two chips).
    * MoE: the expert dimension replaces the FFN-column dimension — whole
      experts are distributed in contiguous near-equal shares, every
      expert-holding chip keeps the full per-expert width, and no more
      chips than experts are allowed.

    Args:
        config: Model configuration.
        num_chips: Number of chips to partition across.
        reduce_root: Chip on which reductions terminate (0 by default,
            matching the hierarchical grouping of the platform).

    Raises:
        PartitioningError: If the partitioning cannot be built.
    """
    if num_chips <= 0:
        raise PartitioningError("num_chips must be positive")
    if num_chips > config.num_heads:
        raise PartitioningError(
            f"cannot distribute {config.num_heads} attention heads across "
            f"{num_chips} chips without leaving chips idle; the paper's "
            "scalability study increases the head count instead"
        )
    if config.is_moe:
        if num_chips > config.num_experts:
            raise PartitioningError(
                f"cannot distribute {config.num_experts} experts across "
                f"{num_chips} chips; experts are assigned whole"
            )
    elif num_chips > config.ffn_dim:
        raise PartitioningError(
            f"cannot distribute {config.ffn_dim} FFN columns across {num_chips} chips"
        )
    if not 0 <= reduce_root < num_chips:
        raise PartitioningError(
            f"reduce_root {reduce_root} out of range for {num_chips} chips"
        )

    head_shares = split_evenly(config.num_heads, num_chips)
    if config.is_moe:
        expert_shares = split_evenly(config.num_experts, num_chips)
        ffn_shares = [config.ffn_dim] * num_chips
    else:
        expert_shares = None
        ffn_shares = split_evenly(config.ffn_dim, num_chips)
    chips: List[ChipPartition] = []
    head_offset = 0
    ffn_offset = 0
    expert_offset = 0
    for chip_id in range(num_chips):
        num_heads = head_shares[chip_id]
        chips.append(
            ChipPartition(
                chip_id=chip_id,
                num_heads=num_heads,
                head_offset=head_offset,
                ffn_cols=ffn_shares[chip_id],
                ffn_col_offset=0 if config.is_moe else ffn_offset,
                is_reduce_root=(chip_id == reduce_root),
                kv_heads=kv_head_coverage(config, head_offset, num_heads),
                num_experts=expert_shares[chip_id] if expert_shares else None,
                expert_offset=expert_offset if expert_shares else 0,
            )
        )
        head_offset += num_heads
        if expert_shares:
            expert_offset += expert_shares[chip_id]
        else:
            ffn_offset += ffn_shares[chip_id]
    partition = BlockPartition(
        config=config, num_chips=num_chips, chips=tuple(chips)
    )
    if reduce_root == 0:
        # Default-root partitions are exactly what __getattr__ rebuilds,
        # so pickling may drop the per-chip shares (see __getstate__).
        object.__setattr__(partition, "_chips_are_canonical", True)
    return partition
