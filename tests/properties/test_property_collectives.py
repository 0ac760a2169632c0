"""Property-based tests of the hierarchical collective plans."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.collectives import (
    all_to_one_reduce,
    estimate_plan_cycles,
    hierarchical_all_reduce,
    hierarchical_broadcast,
)
from repro.hw.presets import siracusa_platform, siracusa_variant


@settings(max_examples=50, deadline=None)
@given(
    num_chips=st.integers(min_value=1, max_value=128),
    payload=st.integers(min_value=0, max_value=1 << 20),
)
def test_all_reduce_structure(num_chips, payload):
    platform = siracusa_platform(num_chips)
    plan = hierarchical_all_reduce(platform, payload)

    # Every chip except the root sends exactly once, and nothing is sent to
    # a chip outside the platform.
    senders = [t.src for round_ in plan.rounds for t in round_.transfers]
    receivers = [t.dst for round_ in plan.rounds for t in round_.transfers]
    assert sorted(senders) == [c for c in range(num_chips) if c != 0]
    assert all(0 <= dst < num_chips for dst in receivers)
    assert plan.total_bytes == (num_chips - 1) * payload

    # The number of rounds is the depth of the grouping tree.
    levels, remaining = 0, num_chips
    while remaining > 1:
        remaining = -(-remaining // platform.group_size)
        levels += 1
    assert len(plan.rounds) == levels


@settings(max_examples=50, deadline=None)
@given(
    num_chips=st.integers(min_value=1, max_value=128),
    payload=st.integers(min_value=0, max_value=1 << 20),
)
def test_broadcast_is_reverse_of_reduce(num_chips, payload):
    platform = siracusa_platform(num_chips)
    reduce_plan = hierarchical_all_reduce(platform, payload)
    broadcast_plan = hierarchical_broadcast(platform, payload)
    reduce_edges = sorted(
        (t.src, t.dst) for round_ in reduce_plan.rounds for t in round_.transfers
    )
    broadcast_edges = sorted(
        (t.dst, t.src) for round_ in broadcast_plan.rounds for t in round_.transfers
    )
    assert reduce_edges == broadcast_edges
    assert broadcast_plan.total_bytes == reduce_plan.total_bytes


@settings(max_examples=40, deadline=None)
@given(
    num_chips=st.integers(min_value=2, max_value=128),
    payload=st.integers(min_value=1, max_value=1 << 18),
)
def test_hierarchical_never_slower_than_flat(num_chips, payload):
    platform = siracusa_platform(num_chips)
    hierarchical = estimate_plan_cycles(
        hierarchical_all_reduce(platform, payload), platform
    )
    flat = estimate_plan_cycles(all_to_one_reduce(platform, payload), platform)
    assert hierarchical <= flat + 1e-9


@settings(max_examples=40, deadline=None)
@given(
    num_chips=st.integers(min_value=1, max_value=96),
    payload=st.integers(min_value=1, max_value=1 << 18),
    group_size=st.integers(min_value=2, max_value=8),
)
def test_group_size_generalises(num_chips, payload, group_size):
    platform = siracusa_variant(num_chips, group_size=group_size)
    plan = hierarchical_all_reduce(platform, payload)
    senders = [t.src for round_ in plan.rounds for t in round_.transfers]
    assert len(senders) == num_chips - 1
    assert len(set(senders)) == num_chips - 1
    # Cost estimate is finite, non-negative, and zero only for one chip.
    cycles = estimate_plan_cycles(plan, platform)
    assert cycles >= 0
    assert (cycles == 0) == (num_chips == 1)
