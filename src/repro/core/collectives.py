"""Hierarchical collective communication plans.

The partitioning scheme needs exactly two synchronisations per Transformer
block, each consisting of an **all-reduce** of the partial outputs followed
by a **broadcast** of the normalised result.  Because an all-to-one
reduction does not scale, the paper performs the reduction hierarchically
in groups of four chips (Fig. 1): members of each group send their partial
tensors to the group leader, leaders form groups of four at the next level,
and so on until the root holds the full sum; the broadcast reverses the
same tree.

A plan is a list of *rounds*; transfers inside one round target distinct
receivers and can proceed in parallel over independent links, while
transfers that converge on the same receiver are serialised by the
simulator (one ingress port per chip).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from ..errors import ConfigurationError
from ..hw.platform import MultiChipPlatform


@dataclass(frozen=True)
class Transfer:
    """One point-to-point message.

    Attributes:
        src: Sending chip id.
        dst: Receiving chip id.
        num_bytes: Payload size in bytes.
    """

    src: int
    dst: int
    num_bytes: int

    def __post_init__(self) -> None:
        if self.src < 0 or self.dst < 0:
            raise ConfigurationError("chip ids must be non-negative")
        if self.src == self.dst:
            raise ConfigurationError("a transfer cannot target its own sender")
        if self.num_bytes < 0:
            raise ConfigurationError("transfer size must be non-negative")


@dataclass(frozen=True)
class CommRound:
    """A set of transfers that may proceed concurrently."""

    transfers: Tuple[Transfer, ...]

    @property
    def num_bytes(self) -> int:
        """Total payload of the round."""
        return sum(transfer.num_bytes for transfer in self.transfers)


@dataclass(frozen=True)
class CollectivePlan:
    """An ordered sequence of communication rounds.

    Attributes:
        name: Label used in traces ("all_reduce", "broadcast", ...).
        rounds: The rounds, executed in order with a barrier between them.
    """

    name: str
    rounds: Tuple[CommRound, ...] = field(default_factory=tuple)

    @property
    def total_bytes(self) -> int:
        """Total bytes moved over chip-to-chip links by the plan."""
        return sum(round_.num_bytes for round_ in self.rounds)

    @property
    def num_transfers(self) -> int:
        """Total number of point-to-point messages."""
        return sum(len(round_.transfers) for round_ in self.rounds)

    def transfers_involving(self, chip_id: int) -> List[Transfer]:
        """All transfers in which ``chip_id`` is sender or receiver."""
        result: List[Transfer] = []
        for round_ in self.rounds:
            for transfer in round_.transfers:
                if chip_id in (transfer.src, transfer.dst):
                    result.append(transfer)
        return result


def _tree_levels(chip_ids: Sequence[int], group_size: int) -> List[List[List[int]]]:
    """Group chips hierarchically; returns, per level, the list of groups."""
    levels: List[List[List[int]]] = []
    current = list(chip_ids)
    while len(current) > 1:
        groups = [
            current[start : start + group_size]
            for start in range(0, len(current), group_size)
        ]
        levels.append(groups)
        current = [group[0] for group in groups]
    return levels


def hierarchical_all_reduce(
    platform: MultiChipPlatform, num_bytes: int
) -> CollectivePlan:
    """Build the reduce phase: partial tensors converge on chip 0.

    At every level of the tree, each group's members send their partial
    tensor to the group leader (its lowest-numbered member), which
    accumulates them.  Leaders then repeat the procedure one level up.
    Groups reduce in parallel; the sends within one group serialise at the
    leader's ingress port, which the simulator models.
    """
    if num_bytes < 0:
        raise ConfigurationError("collective payload must be non-negative")
    rounds: List[CommRound] = []
    for groups in _tree_levels(platform.chip_ids(), platform.group_size):
        transfers: List[Transfer] = []
        for group in groups:
            leader = group[0]
            for member in group[1:]:
                transfers.append(Transfer(src=member, dst=leader, num_bytes=num_bytes))
        if transfers:
            rounds.append(CommRound(transfers=tuple(transfers)))
    return CollectivePlan(name="all_reduce", rounds=tuple(rounds))


def hierarchical_broadcast(
    platform: MultiChipPlatform, num_bytes: int
) -> CollectivePlan:
    """Build the broadcast phase: the reduced tensor fans back out from chip 0.

    The broadcast reverses the reduction tree: the root sends to the level
    leaders, which forward to their group members, "in the same manner as
    it is reduced" (Sec. IV of the paper).
    """
    if num_bytes < 0:
        raise ConfigurationError("collective payload must be non-negative")
    rounds: List[CommRound] = []
    for groups in reversed(_tree_levels(platform.chip_ids(), platform.group_size)):
        transfers: List[Transfer] = []
        for group in groups:
            leader = group[0]
            for member in group[1:]:
                transfers.append(Transfer(src=leader, dst=member, num_bytes=num_bytes))
        if transfers:
            rounds.append(CommRound(transfers=tuple(transfers)))
    return CollectivePlan(name="broadcast", rounds=tuple(rounds))


def all_to_one_reduce(platform: MultiChipPlatform, num_bytes: int) -> CollectivePlan:
    """Flat (non-hierarchical) reduction used as an ablation baseline.

    Every chip sends its partial tensor directly to chip 0 in a single
    round; all messages serialise at the root's ingress port, which is why
    the paper adopts the hierarchical scheme instead.
    """
    if num_bytes < 0:
        raise ConfigurationError("collective payload must be non-negative")
    transfers = tuple(
        Transfer(src=chip_id, dst=platform.root_chip_id, num_bytes=num_bytes)
        for chip_id in platform.chip_ids()
        if chip_id != platform.root_chip_id
    )
    rounds = (CommRound(transfers=transfers),) if transfers else tuple()
    return CollectivePlan(name="all_to_one_reduce", rounds=rounds)


def estimate_plan_cycles(
    plan: CollectivePlan, platform: MultiChipPlatform
) -> float:
    """Analytical (simulator-free) estimate of a plan's duration in cycles.

    Within a round, transfers with distinct receivers run in parallel and
    transfers with the same receiver serialise; rounds are separated by a
    barrier.  The block simulator produces the same value for
    schedules where communication does not overlap with computation, which
    the unit tests cross-check.
    """
    link = platform.link
    frequency = platform.frequency_hz
    total = 0.0
    for round_ in plan.rounds:
        per_receiver: dict[int, float] = {}
        for transfer in round_.transfers:
            cycles = link.transfer_cycles(transfer.num_bytes, frequency)
            per_receiver[transfer.dst] = per_receiver.get(transfer.dst, 0.0) + cycles
        if per_receiver:
            total += max(per_receiver.values())
    return total
