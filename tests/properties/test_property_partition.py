"""Property-based tests of the partitioner's structural invariants.

The partitioning scheme's central promises — every head and FFN column is
owned by exactly one chip, no weight byte is replicated, the imbalance is
bounded — must hold for *any* model shape and chip count, not just the
paper's configurations.  Hypothesis explores that space.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.partition import BlockPartition, partition_block, split_evenly
from repro.errors import PartitioningError
from repro.graph.transformer import TransformerConfig


@st.composite
def transformer_configs(draw):
    """Random but well-formed Transformer configurations."""
    num_heads = draw(st.integers(min_value=1, max_value=64))
    head_dim = draw(st.sampled_from([4, 8, 16, 32, 64]))
    embed_dim = draw(st.sampled_from([64, 128, 256, 512, 768]))
    ffn_dim = draw(st.integers(min_value=num_heads, max_value=4096))
    num_layers = draw(st.integers(min_value=1, max_value=32))
    return TransformerConfig(
        name="hypothesis-model",
        embed_dim=embed_dim,
        ffn_dim=ffn_dim,
        num_heads=num_heads,
        head_dim=head_dim,
        num_layers=num_layers,
        vocab_size=1000,
    )


@given(total=st.integers(min_value=0, max_value=100000),
       parts=st.integers(min_value=1, max_value=512))
def test_split_evenly_conserves_total_and_bounds_imbalance(total, parts):
    shares = split_evenly(total, parts)
    assert len(shares) == parts
    assert sum(shares) == total
    assert max(shares) - min(shares) <= 1
    assert all(share >= 0 for share in shares)


@settings(max_examples=60, deadline=None)
@given(config=transformer_configs(), data=st.data())
def test_partition_covers_everything_exactly_once(config, data):
    num_chips = data.draw(
        st.integers(min_value=1, max_value=min(config.num_heads, config.ffn_dim))
    )
    partition = partition_block(config, num_chips)

    # Heads and FFN columns are covered exactly once (validated internally,
    # re-checked explicitly here).
    assert sum(chip.num_heads for chip in partition.chips) == config.num_heads
    assert sum(chip.ffn_cols for chip in partition.chips) == config.ffn_dim

    head_ranges = sorted(
        (chip.head_offset, chip.head_offset + chip.num_heads)
        for chip in partition.chips
    )
    for (_, end), (next_start, _) in zip(head_ranges, head_ranges[1:]):
        assert end == next_start

    # No weight replication: per-chip slices sum to the full block.
    assert partition.total_weight_bytes() == config.block_weight_bytes

    # Exactly one reduction root.
    assert sum(chip.is_reduce_root for chip in partition.chips) == 1


@settings(max_examples=60, deadline=None)
@given(config=transformer_configs(), data=st.data())
def test_partition_weight_imbalance_is_bounded(config, data):
    num_chips = data.draw(
        st.integers(min_value=1, max_value=min(config.num_heads, config.ffn_dim))
    )
    partition = partition_block(config, num_chips)
    per_chip = partition.weight_bytes_per_chip()
    # With contiguous near-equal shares, the largest slice exceeds the
    # smallest by at most one head's worth of attention weights plus one
    # FFN column's worth of FFN weights.
    head_quantum = 4 * config.embed_dim * config.head_dim
    ffn_quantum = config.num_ffn_matrices * config.embed_dim
    assert max(per_chip) - min(per_chip) <= head_quantum + ffn_quantum


@settings(max_examples=30, deadline=None)
@given(config=transformer_configs())
def test_partition_is_deterministic(config):
    num_chips = min(config.num_heads, 8)
    first = partition_block(config, num_chips)
    second = partition_block(config, num_chips)
    assert first.weight_bytes_per_chip() == second.weight_bytes_per_chip()
    assert [chip.head_offset for chip in first.chips] == [
        chip.head_offset for chip in second.chips
    ]


def _reference_check_disjoint(ranges, total, what):
    """The index walk alone: the error message it raises, or ``None``."""
    covered = [False] * total
    for offset, length in ranges:
        for index in range(offset, offset + length):
            if index < 0 or index >= total:
                return f"{what} index {index} out of range"
            if covered[index]:
                return f"{what} {index} assigned to two chips"
            covered[index] = True
    if not all(covered):
        return f"{what} {covered.index(False)} assigned to no chip"
    return None


@st.composite
def range_lists(draw):
    """``(ranges, total)``: arbitrary ranges, or a shuffled, perturbed tiling."""
    total = draw(st.integers(min_value=0, max_value=40))
    pair = st.tuples(
        st.integers(min_value=-6, max_value=45), st.integers(min_value=-6, max_value=20)
    )
    if draw(st.booleans()):
        return draw(st.lists(pair, max_size=8)), total
    lengths = draw(st.lists(st.integers(min_value=0, max_value=total), max_size=6))
    ranges, offset = [], 0
    for length in lengths:
        length = min(length, total - offset)
        ranges.append((offset, length))
        offset += length
    if offset < total:
        ranges.append((offset, total - offset))
    ranges = draw(st.permutations(ranges))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        ranges.insert(draw(st.integers(min_value=0, max_value=len(ranges))), draw(pair))
    if ranges and draw(st.booleans()):
        index = draw(st.integers(min_value=0, max_value=len(ranges) - 1))
        offset, length = ranges[index]
        shift, grow = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        ranges[index] = (offset + shift, length + grow)
    return ranges, total


@settings(max_examples=400, deadline=None)
@given(case=range_lists())
def test_disjointness_check_matches_the_index_walk(case):
    ranges, total = case
    try:
        BlockPartition._check_disjoint(ranges, total=total, what="head")
        outcome = None
    except PartitioningError as error:
        outcome = str(error)
    assert outcome == _reference_check_disjoint(ranges, total, "head")
