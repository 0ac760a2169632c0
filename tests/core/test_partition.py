"""Unit tests for the tensor-parallel block partitioner."""

from __future__ import annotations

import pytest

from repro.core.partition import (
    kv_head_coverage,
    BlockPartition,
    ChipPartition,
    partition_block,
    split_evenly,
)
from repro.errors import PartitioningError
from repro.models import mobilebert, tinyllama_42m, tinyllama_scaled


class TestSplitEvenly:
    def test_exact_division(self):
        assert split_evenly(8, 4) == [2, 2, 2, 2]

    def test_remainder_goes_to_first_parts(self):
        assert split_evenly(10, 4) == [3, 3, 2, 2]

    def test_more_parts_than_items(self):
        assert split_evenly(2, 4) == [1, 1, 0, 0]

    def test_total_is_preserved(self):
        shares = split_evenly(2048, 7)
        assert sum(shares) == 2048
        assert max(shares) - min(shares) <= 1

    def test_invalid_arguments(self):
        with pytest.raises(PartitioningError):
            split_evenly(4, 0)
        with pytest.raises(PartitioningError):
            split_evenly(-1, 4)


class TestPartitionBlock:
    def test_eight_chip_tinyllama(self):
        partition = partition_block(tinyllama_42m(), 8)
        assert partition.num_chips == 8
        assert all(chip.num_heads == 1 for chip in partition.chips)
        assert all(chip.ffn_cols == 256 for chip in partition.chips)
        assert partition.reduce_root.chip_id == 0

    def test_weights_never_replicated(self):
        """The per-chip weight slices sum exactly to one block (no copies)."""
        config = tinyllama_42m()
        for num_chips in (1, 2, 4, 8):
            partition = partition_block(config, num_chips)
            assert partition.total_weight_bytes() == config.block_weight_bytes

    def test_single_chip_degenerates_to_full_block(self):
        config = mobilebert()
        partition = partition_block(config, 1)
        chip = partition.chips[0]
        assert chip.num_heads == config.num_heads
        assert chip.ffn_cols == config.ffn_dim
        assert chip.weight_slice_bytes(config) == config.block_weight_bytes

    def test_uneven_head_counts_are_balanced(self):
        config = mobilebert()  # 4 heads
        partition = partition_block(config, 3)
        head_counts = [chip.num_heads for chip in partition.chips]
        assert sorted(head_counts, reverse=True) == [2, 1, 1]
        assert partition.max_weight_imbalance() < 2.0

    def test_more_chips_than_heads_rejected(self):
        with pytest.raises(PartitioningError, match="attention heads"):
            partition_block(tinyllama_42m(), 16)

    def test_scaled_model_supports_64_chips(self):
        partition = partition_block(tinyllama_scaled(), 64)
        assert all(chip.num_heads == 1 for chip in partition.chips)

    def test_custom_reduce_root(self):
        partition = partition_block(tinyllama_42m(), 4, reduce_root=2)
        assert partition.reduce_root.chip_id == 2
        assert sum(chip.is_reduce_root for chip in partition.chips) == 1

    def test_invalid_arguments(self):
        with pytest.raises(PartitioningError):
            partition_block(tinyllama_42m(), 0)
        with pytest.raises(PartitioningError):
            partition_block(tinyllama_42m(), 4, reduce_root=4)

    def test_kv_cache_slice_scales_with_heads(self, autoregressive_workload):
        config = autoregressive_workload.config
        partition = partition_block(config, 8)
        chip_cache = partition.chips[0].kv_cache(config, autoregressive_workload)
        assert chip_cache.num_heads == 1
        assert chip_cache.total_bytes * 8 == 2 * 128 * 512 * 8

    def test_chip_lookup(self):
        partition = partition_block(tinyllama_42m(), 4)
        assert partition.chip(3).chip_id == 3
        with pytest.raises(PartitioningError):
            partition.chip(4)


class TestPartitionValidation:
    def _chip(self, chip_id, heads, head_offset, ffn, ffn_offset, root=False):
        return ChipPartition(
            chip_id=chip_id,
            num_heads=heads,
            head_offset=head_offset,
            ffn_cols=ffn,
            ffn_col_offset=ffn_offset,
            is_reduce_root=root,
        )

    def test_overlapping_heads_rejected(self):
        config = mobilebert()
        chips = (
            self._chip(0, 2, 0, 256, 0, root=True),
            self._chip(1, 2, 1, 256, 256),  # head 1 owned twice
        )
        with pytest.raises(PartitioningError, match="two chips"):
            BlockPartition(config=config, num_chips=2, chips=chips)

    def test_missing_ffn_columns_rejected(self):
        config = mobilebert()
        chips = (
            self._chip(0, 2, 0, 200, 0, root=True),
            self._chip(1, 2, 2, 200, 200),
        )
        with pytest.raises(PartitioningError):
            BlockPartition(config=config, num_chips=2, chips=chips)

    def test_two_roots_rejected(self):
        config = mobilebert()
        chips = (
            self._chip(0, 2, 0, 256, 0, root=True),
            self._chip(1, 2, 2, 256, 256, root=True),
        )
        with pytest.raises(PartitioningError, match="reduction root"):
            BlockPartition(config=config, num_chips=2, chips=chips)

    def test_out_of_order_chip_ids_rejected(self):
        config = mobilebert()
        chips = (
            self._chip(1, 2, 0, 256, 0, root=True),
            self._chip(0, 2, 2, 256, 256),
        )
        with pytest.raises(PartitioningError, match="ordered"):
            BlockPartition(config=config, num_chips=2, chips=chips)


class TestKvHeadCoverage:
    def test_mha_coverage_equals_head_count(self):
        config = tinyllama_42m()
        assert kv_head_coverage(config, 0, 8) == 8
        assert kv_head_coverage(config, 2, 3) == 3

    def test_gqa_counts_spanned_groups(self):
        from dataclasses import replace

        config = replace(tinyllama_42m(), kv_heads=2)  # groups of 4
        assert kv_head_coverage(config, 0, 8) == 2
        assert kv_head_coverage(config, 0, 4) == 1
        assert kv_head_coverage(config, 3, 2) == 2  # straddles the boundary
        assert kv_head_coverage(config, 4, 4) == 1
        assert kv_head_coverage(config, 0, 0) == 0


class TestMoePartitioning:
    def _moe_config(self, num_experts=4, moe_top_k=2):
        from dataclasses import replace

        return replace(
            tinyllama_42m(), num_experts=num_experts, moe_top_k=moe_top_k
        )

    def test_experts_assigned_whole_and_disjoint(self):
        config = self._moe_config()
        partition = partition_block(config, num_chips=2)
        partition.validate()
        expert_counts = [chip.num_experts for chip in partition.chips]
        assert expert_counts == [2, 2]
        offsets = [chip.expert_offset for chip in partition.chips]
        assert offsets == [0, 2]
        # Expert-holding chips carry the full per-expert FFN width.
        assert all(
            chip.ffn_cols == config.ffn_dim for chip in partition.chips
        )

    def test_more_chips_than_experts_rejected(self):
        with pytest.raises(PartitioningError, match="expert"):
            partition_block(self._moe_config(num_experts=2), num_chips=4)

    def test_validate_requires_explicit_expert_counts(self):
        config = self._moe_config()
        partition = partition_block(config, num_chips=2)
        from dataclasses import replace

        # BlockPartition validates on construction, so stripping the
        # explicit expert counts must be rejected immediately.
        with pytest.raises(PartitioningError, match="expert"):
            replace(
                partition,
                chips=tuple(
                    replace(chip, num_experts=None)
                    for chip in partition.chips
                ),
            )

    def test_gqa_partition_records_kv_coverage(self):
        from dataclasses import replace

        config = replace(tinyllama_42m(), kv_heads=2)
        partition = partition_block(config, num_chips=4)
        partition.validate()
        # Two query heads per chip, four per KV group: every chip sits
        # inside one group.
        assert [chip.kv_heads for chip in partition.chips] == [1, 1, 1, 1]
